package main

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"stopandstare"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// The library workloads (cold-dssa, remote-dssa) run the paper's query:
// every query builds a fresh Session and runs D-SSA at ε = 0.1 on the
// perf suite's high-degree weighted-cascade ChungLu graph (25k nodes, 1M
// edges), alternating IC and LT, k ∈ {10, 50}.
const (
	libNodes    = 25000
	libEdges    = 1000000
	libEpsilon  = 0.1
	libSeedsPer = 4 // session seeds per (model, k)
)

var libKs = []int{10, 50}

// answer is what an oracle pins: the seed set and the RR-set count.
type answer struct {
	seeds   []uint32
	samples int64
}

func (a answer) matches(seeds []uint32, samples int64) bool {
	return samples == a.samples && slices.Equal(seeds, a.seeds)
}

type libQuery struct {
	model diffusion.Model
	k     int
	seed  uint64
	want  answer
}

// libEnv is one set-up of a library workload.
type libEnv struct {
	g        *graph.Graph
	samplers map[diffusion.Model]*ris.Sampler
	queries  []libQuery
	units    [][]item

	// Remote shards: two in-process shard servers on loopback TCP.
	servers []*ris.ShardServer
	lns     []*trackListener
	addrs   []string
	serving sync.WaitGroup
}

func setupLibrary(o *options, remote bool, prev *libEnv) (*libEnv, error) {
	g, err := gen.ChungLu(libNodes, libEdges, 2.1, derive(inputSeed, 1), graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		return nil, err
	}
	env := &libEnv{g: g, samplers: map[diffusion.Model]*ris.Sampler{}}
	models := []diffusion.Model{diffusion.IC, diffusion.LT}
	for _, m := range models {
		s, err := ris.NewSampler(g, m)
		if err != nil {
			return nil, err
		}
		s.Plan() // compile now, not in the first timed query
		env.samplers[m] = s
	}
	// Oracles: every distinct query answered cold once, by a flat Session.
	for si := 0; si < libSeedsPer; si++ {
		for _, k := range libKs {
			var unit []item
			for _, m := range models {
				q := libQuery{model: m, k: k, seed: derive(inputSeed, uint64(100+si))}
				sess, err := stopandstare.NewSession(g, m, stopandstare.SessionOptions{Seed: q.seed, Workers: o.nproc})
				if err != nil {
					return nil, err
				}
				res, err := sess.Maximize(stopandstare.Query{K: k, Epsilon: libEpsilon})
				if err != nil {
					return nil, fmt.Errorf("oracle %v k=%d: %w", m, k, err)
				}
				q.want = answer{seeds: res.Seeds, samples: res.Samples}
				unit = append(unit, item{q: len(env.queries)})
				env.queries = append(env.queries, q)
			}
			env.units = append(env.units, unit)
		}
	}
	if prev != nil {
		for i, q := range env.queries {
			if !q.want.matches(prev.queries[i].want.seeds, prev.queries[i].want.samples) {
				return nil, fmt.Errorf("oracle %d differs between two set-ups of one seed", i)
			}
		}
	}
	if remote {
		for i := 0; i < 2; i++ {
			// One sampling worker per server, as imworker runs on this
			// host; a small shard cap because every query's fresh store
			// opens new shard states that no later query reads.
			srv := ris.NewShardServer(g, ris.ShardServerOptions{SamplingWorkers: 1, MaxShards: 4})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				env.close()
				return nil, err
			}
			tl := &trackListener{Listener: ln}
			env.servers = append(env.servers, srv)
			env.lns = append(env.lns, tl)
			env.addrs = append(env.addrs, ln.Addr().String())
			env.serving.Add(1)
			go func() {
				defer env.serving.Done()
				_ = srv.Serve(tl) // returns once Close stops the listener
			}()
		}
		// Warm the remote path once and check it against its oracle.
		var w outcome
		env.untraced(o, &w, &env.queries[0])
		if !w.ok {
			env.close()
			return nil, fmt.Errorf("remote warm-up query did not match its oracle")
		}
	}
	return env, nil
}

func (env *libEnv) close() {
	for _, s := range env.servers {
		s.Close()
	}
	env.serving.Wait()
	ris.DropCachedPlans(env.g)
}

// untraced serves q the way a user does: a fresh Session, one Maximize.
func (env *libEnv) untraced(o *options, out *outcome, q *libQuery) {
	t0 := time.Now()
	sess, err := stopandstare.NewSession(env.g, q.model, stopandstare.SessionOptions{
		Seed: q.seed, Workers: o.nproc, RemoteWorkers: env.addrs})
	var res *stopandstare.Result
	if err == nil {
		res, err = sess.Maximize(stopandstare.Query{K: q.k, Epsilon: libEpsilon})
	}
	out.lat = time.Since(t0)
	for _, l := range env.lns {
		l.closeConns() // the session is done; its worker connections are not reused
	}
	if err != nil {
		return
	}
	st := sess.Stats()
	out.ok = q.want.matches(res.Seeds, res.Samples)
	out.samples, out.iters, out.warm = res.Samples, res.Iterations, res.Warm
	out.storeBytes = st.StoreBytes
}

// traced serves q through core.DSSAWith over the benchmark's timed Exec on
// a store built by ris.NewStore: the same computation as the Session path,
// with a span around every layer call.
func (env *libEnv) traced(o *options, out *outcome, q *libQuery, tr *tracer, meter *remoteMeter) {
	b0, w0, d0 := meter.bytes.Load(), meter.waitNs.Load(), meter.dials.Load()
	t0 := time.Now()
	root := tr.open("query", int64(out.idx), 0, t0)
	var dial ris.DialFunc
	if len(env.addrs) > 0 {
		dial = meter.dial
	}
	st := ris.NewStore(env.samplers[q.model], q.seed, ris.StoreOptions{
		Workers: o.nproc, RemoteWorkers: env.addrs, RemoteDial: dial})
	ex := newTimedExec(st, tr)
	res, err := ex.dssa(core.Options{K: q.k, Epsilon: libEpsilon, Seed: q.seed, Workers: o.nproc}, int64(out.idx), root)
	t1 := time.Now()
	tr.close(root, t1)
	out.lat = t1.Sub(t0)
	for _, l := range env.lns {
		l.closeConns()
	}
	if err != nil {
		return
	}
	l := ex.l
	l.remoteBytes = meter.bytes.Load() - b0
	l.remoteWait = time.Duration(meter.waitNs.Load() - w0)
	l.dials = meter.dials.Load() - d0
	out.layer = &l
	out.ok = q.want.matches(res.Seeds, res.TotalSamples)
	out.samples, out.iters = res.TotalSamples, res.Iterations
}

func runLibrary(o *options, remote bool) (*report, error) {
	r := newReport()
	setup, env, err := timeSetups(
		func(prev *libEnv) (*libEnv, error) { return setupLibrary(o, remote, prev) },
		func(e *libEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()

	tr := newTracer(o.trace)
	meter := &remoteMeter{}
	s := newStream(env.units, derive(o.seed, 2), o.trace)
	hp := startHeapPeak()
	outs, wall := drive(1, o.duration(), s, func(_ int, out *outcome) {
		q := &env.queries[out.it.q]
		if out.it.traced {
			env.traced(o, out, q, tr, meter)
		} else {
			env.untraced(o, out, q)
		}
	})
	heap := hp.Stop()

	latencyMetrics(r, outs, s.perRound, wall)
	r.e2e["setup_s"] = setup
	r.e2e["rr_sets_per_query"] = meanOver(outs, s.perRound, false, func(o *outcome) float64 { return float64(o.samples) })
	r.e2e["store_resident_mb"] = meanOver(outs, s.perRound, false, func(o *outcome) float64 { return mb(o.storeBytes) })
	r.e2e["heap_peak_mb"] = heap

	if o.trace {
		var samples []*layerSample
		for _, out := range wholeRounds(outs, s.perRound) {
			if out.ok && out.it.traced {
				samples = append(samples, out.layer)
			}
		}
		addLayers(r, samples)
		overhead(r, outs)
		grew := 0
		for _, out := range outs {
			if out.ok && !out.it.traced && !out.warm {
				grew++
			}
		}
		r.layer["session.growths"] = float64(grew)
		r.layer["session.warm_frac"] = meanOver(outs, s.perRound, false, func(o *outcome) float64 { return b2f(o.warm) })
		var plan int64
		for _, smp := range env.samplers {
			plan += smp.PlanBytes()
		}
		r.layer["ris.plan_mb"] = mb(plan)
		r.layer["graph.resident_mb"] = mb(env.g.ResidentBytes())
		r.layer["graph.mapped_mb"] = mb(env.g.MappedBytes())
		if err := table3(o, r, env.g); err != nil {
			return nil, err
		}
		r.spans = tr.all()
	}
	r.detail["setup_s"] = setup
	r.detail["distinct_queries"] = len(env.queries)
	r.detail["rounds"] = len(outs) / s.perRound
	return r, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// table3 reports the paper's Table 3 comparison as exact RR-set counts on
// the cold-dssa IC graph g at k = 50, ε = 0.1: D-SSA, SSA and IMM from one
// session seed.
func table3(o *options, r *report, g *graph.Graph) error {
	opt := stopandstare.Options{K: 50, Epsilon: 0.1, Seed: derive(inputSeed, 3), Workers: o.nproc}
	for _, row := range []struct {
		algo stopandstare.Algorithm
		name string
	}{
		{stopandstare.DSSA, "core.rr_sets_dssa"},
		{stopandstare.SSA, "core.rr_sets_ssa"},
		{stopandstare.IMM, "baselines.rr_sets_imm"},
	} {
		res, err := stopandstare.Maximize(g, stopandstare.IC, row.algo, opt)
		if err != nil {
			return fmt.Errorf("table 3 %s: %w", row.algo, err)
		}
		r.layer[row.name] = float64(res.Samples)
	}
	return nil
}
