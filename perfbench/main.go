// Command perfbench is the repository benchmark: it runs one workload from a
// workload seed, checks every answer against an oracle computed in set-up,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) named in BENCHMARK.json as the last line of standard output.
//
//	bash perfbench/run.sh --workload cold-dssa --seed 1 --seconds 10 --trace 0
//
// Workloads are described in perfbench/README.md. Everything is measured
// from outside the library, by timing calls into its public functions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int    // closed-loop clients of the serving workloads: min(2, nproc)
	workdir  string // scratch files for this run (graphs, state, spill)
	outdir   string // kept outputs (span traces)
	rev      string
	nproc    int
}

func (o *options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// report is what a workload hands back: outcome counts, the metrics by
// name, reasons the run is invalid, and free-form details for the log line.
type report struct {
	attempted, failed int
	invalid           []string
	e2e               map[string]float64
	layer             map[string]float64
	detail            map[string]any
	spans             []span
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*options) (*report, error){
	"cold-dssa":   func(o *options) (*report, error) { return runLibrary(o, false) },
	"remote-dssa": func(o *options) (*report, error) { return runLibrary(o, true) },
	"warm-serve":  runWarmServe,
	"churn-serve": runChurnServe,
}

// specPath is the benchmark definition, read from the repository root.
const specPath = "BENCHMARK.json"

// deadline bounds a whole run: a benchmark that hangs must fail, not stall
// the caller.
const deadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	o := &options{nproc: runtime.NumCPU()}
	o.clients = min(2, o.nproc)
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for scratch and trace files")
	flag.StringVar(&o.rev, "rev", "unknown", "source revision recorded in the output")
	flag.Parse()
	o.trace = traceFlag == 1

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	if o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		return fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})

	base := o.workdir
	o.outdir = filepath.Join(base, "traces")
	o.workdir = filepath.Join(base, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(o.workdir)
	// An interrupted run removes its scratch files too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(o.workdir)
		os.Exit(2)
	}()

	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": o.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"rev": o.rev, "clients": o.clients,
	}
	printLine(map[string]any{"perfbench_env": env})

	rep, err := wl(o)
	if err != nil {
		return fail(err)
	}
	if o.trace {
		path, err := writeSpans(o, env, rep.spans)
		if err != nil {
			return fail(err)
		}
		rep.detail["trace_file"] = path
	}
	want, got := sp.EndToEnd, rep.e2e
	if o.trace {
		want, got = sp.PerLayer, rep.layer
	}
	metrics := map[string]any{}
	var unobserved []string
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !o.trace {
			return fail(fmt.Errorf("workload %s did not measure %s", o.workload, m.Name))
		}
		if !ok {
			// A layer this workload does not reach, or one not visible from
			// outside the program on it: reported as 0 and listed.
			unobserved = append(unobserved, m.Name)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if o.trace {
		rep.detail["unobserved_layers"] = unobserved
	}
	for name := range got {
		if !sp.declared(name, o.trace) {
			return fail(fmt.Errorf("metric %s is not declared in %s", name, specPath))
		}
	}
	rep.detail["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.detail["invalid"] = rep.invalid
	printLine(map[string]any{"perfbench_detail": rep.detail})
	if rep.attempted < 1 {
		return fail(errors.New("no query completed in the timed phase"))
	}
	printLine(map[string]any{
		"correct":   rep.failed == 0 && len(rep.invalid) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	return 0
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers, strings and slices reach here
	}
	fmt.Println(string(b))
}

// spec is the part of BENCHMARK.json the program checks itself against, so
// the names and units it prints cannot drift from the declared ones.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) declared(name string, layer bool) bool {
	list := s.EndToEnd
	if layer {
		list = s.PerLayer
	}
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// writeSpans stores the traced run's spans, sorted by start time, with the
// environment record.
func writeSpans(o *options, env map[string]any, spans []span) (string, error) {
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return "", err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(o.outdir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(map[string]any{"env": env, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
