package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// inputSeed fixes the graphs and session seeds of every workload; the
// workload seed (--seed) sets the order of the query stream. D-SSA stops
// at one of a few doubling levels, each twice the work of the one below,
// and which level a (graph, session seed, k, ε) reaches is all but a coin
// flip, so letting --seed pick session seeds changes how much work a run
// does: across five seeds the latency and throughput spread was 0.16-0.32
// of the median, against 0.05 for five reruns of one seed.
const inputSeed = 0x5eed

// derive maps (seed, tag) to an independent 64-bit seed (splitmix64
// finalizer).
func derive(seed, tag uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + tag*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// item is one query of the stream: an index into the workload's table of
// distinct queries, and whether the traced path serves it.
type item struct {
	q      int
	traced bool
}

// stream is the query order. A round runs every unit of the workload once,
// in a seeded order; a unit is a short fixed run of items (cold workloads
// use IC,LT pairs so the models alternate). Because each round holds the
// same multiset, means over whole rounds are exact at a fixed seed.
type stream struct {
	units    [][]item
	seed     uint64
	perRound int

	mu     sync.Mutex
	rounds map[int][]item
}

// newStream builds the stream over units. In a traced run every unit is
// present twice per round, once traced and once not, so both paths see
// the same queries interleaved in time.
func newStream(units [][]item, seed uint64, traced bool) *stream {
	if traced {
		n := len(units)
		for _, u := range units[:n] {
			t := slices.Clone(u)
			for i := range t {
				t[i].traced = true
			}
			units = append(units, t)
		}
	}
	per := 0
	for _, u := range units {
		per += len(u)
	}
	return &stream{units: units, seed: seed, perRound: per, rounds: map[int][]item{}}
}

// at returns the i-th item of the stream.
func (s *stream) at(i int) item {
	r := i / s.perRound
	s.mu.Lock()
	defer s.mu.Unlock()
	order, ok := s.rounds[r]
	if !ok {
		rng := rand.New(rand.NewSource(int64(derive(s.seed, uint64(r)))))
		perm := rng.Perm(len(s.units))
		order = make([]item, 0, s.perRound)
		for _, u := range perm {
			order = append(order, s.units[u]...)
		}
		s.rounds[r] = order
	}
	return order[i%s.perRound]
}

// outcome is one timed query as the client saw it.
type outcome struct {
	idx     int
	it      item
	start   time.Duration // since the timed phase began
	lat     time.Duration
	ok      bool
	samples int64
	iters   int
	warm    bool
	// Workload-specific observations.
	storeBytes int64
	elapsed    time.Duration // the response's elapsed_ms
	coalesced  bool
	layer      *layerSample
}

// drive runs clients closed-loop over the stream until d has elapsed: each
// client sends its next query only after the previous one returned. Every
// claimed index completes, so indices [0, len(outs)) are all present.
func drive(clients int, d time.Duration, s *stream, do func(client int, o *outcome)) ([]outcome, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				o := outcome{idx: i, it: s.at(i), start: time.Since(start)}
				do(c, &o)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	slices.SortFunc(outs, func(a, b outcome) int { return a.idx - b.idx })
	return outs, wall
}

// wholeRounds returns the outcomes that belong to completed rounds, or all
// of them when not one round completed.
func wholeRounds(outs []outcome, perRound int) []outcome {
	n := len(outs) / perRound * perRound
	if n == 0 {
		return outs
	}
	return outs[:n]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

func mb(b int64) float64 { return float64(b) / mib }

// heapPeak samples the live Go heap (allocated heap objects) until stopped
// and keeps the largest reading.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapPeak first collects the set-up's garbage, so the peak belongs
// to the timed phase, not to when the last set-up build happened to be
// swept.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return mb(int64(h.peak))
}

// setupReps is how often a run builds its set-up. A build takes one to
// two seconds, so the median of five keeps setup_s steady.
const setupReps = 5

// timeSetups builds a workload's whole set-up setupReps times, tearing
// down each build but the last before the next one starts (teardown is not
// timed), and returns the median build time in seconds with the surviving
// build, which serves the timed phase.
func timeSetups[T any](build func(prev T) (T, error), teardown func(T)) (float64, T, error) {
	var cur T
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := build(cur)
		if err != nil {
			return 0, cur, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			teardown(cur)
		}
		cur = next
	}
	return median(times), cur, nil
}

// latencyMetrics fills the latency, throughput and success metrics of a
// timed phase. Latency quantiles take the untraced answers of whole rounds
// only, so every run weighs the distinct queries alike whatever its seed.
func latencyMetrics(r *report, outs []outcome, perRound int, wall time.Duration) {
	ok := 0
	for _, o := range outs {
		r.attempted++
		if !o.ok {
			r.failed++
			continue
		}
		ok++
	}
	var lats []float64
	for _, o := range wholeRounds(outs, perRound) {
		if o.ok && !o.it.traced {
			lats = append(lats, ms(o.lat))
		}
	}
	r.e2e["latency_p50_ms"] = quantile(lats, 0.5)
	r.e2e["latency_p90_ms"] = quantile(lats, 0.9)
	r.e2e["throughput_qps"] = float64(ok) / wall.Seconds()
	r.e2e["ok_frac"] = float64(ok) / float64(max(len(outs), 1))
	r.detail["queries"] = len(outs)
	r.detail["latency_samples"] = len(lats)
	// Answers per second of the timed phase, to tell a noisy neighbour
	// (a dip in some seconds) from a slower program (all seconds).
	perSecond := make([]int, int(wall.Seconds())+1)
	for _, o := range outs {
		if o.ok {
			perSecond[int((o.start+o.lat).Seconds())]++
		}
	}
	r.detail["answers_by_second"] = perSecond
}

// meanOver averages f over the untraced, answered outcomes of whole rounds.
func meanOver(outs []outcome, perRound int, traced bool, f func(o *outcome) float64) float64 {
	var sum float64
	n := 0
	for i := range wholeRounds(outs, perRound) {
		o := &outs[i]
		if o.ok && o.it.traced == traced {
			sum += f(o)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// overhead compares traced and untraced latency medians of one run.
func overhead(r *report, outs []outcome) {
	var plain, traced []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		if o.it.traced {
			traced = append(traced, ms(o.lat))
		} else {
			plain = append(plain, ms(o.lat))
		}
	}
	p, t := median(plain), median(traced)
	r.layer["trace.latency_p50_untraced_ms"] = p
	r.layer["trace.latency_p50_traced_ms"] = t
	if p > 0 {
		r.layer["trace.overhead_frac"] = t/p - 1
	} else {
		r.layer["trace.overhead_frac"] = 0
	}
}
