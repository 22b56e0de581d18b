package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stopandstare"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
	"stopandstare/internal/serving"
)

// The serving workloads drive serving.Server over loopback HTTP with
// closed-loop clients, each on its own connection.

// serveQuery is one distinct request of a serving workload.
type serveQuery struct {
	tenant int
	k      int
	eps    float64
	want   answer
	body   []byte
}

// tenantSpec is one tenant: its graph (heap, or the source of a .sasg
// file), model and session options.
type tenantSpec struct {
	name  string
	file  string // .sasg path of a lazily opened tenant
	g     *graph.Graph
	model diffusion.Model
	sopt  stopandstare.SessionOptions
}

// serveEnv is one set-up of a serving workload.
type serveEnv struct {
	tenants []tenantSpec
	queries []serveQuery
	units   [][]item
	dir     string // per-set-up files ("" for none)

	mgr  *serving.Manager
	srv  *http.Server
	url  string
	done chan struct{}
	turn *turnover // churn-serve only
}

func tenantGraph(tag uint64) (*graph.Graph, error) {
	return gen.ChungLu(20000, 120000, 2.1, derive(inputSeed, tag), graph.BuildOptions{Model: graph.WeightedCascade})
}

// oracles answers every distinct query cold, on a fresh flat Session over
// the tenant's heap graph, and returns each tenant's largest store.
func (env *serveEnv) oracles(nproc int) ([]int64, error) {
	maxStore := make([]int64, len(env.tenants))
	for i := range env.queries {
		q := &env.queries[i]
		t := env.tenants[q.tenant]
		sess, err := stopandstare.NewSession(t.g, t.model, stopandstare.SessionOptions{Seed: t.sopt.Seed, Workers: nproc})
		if err != nil {
			return nil, err
		}
		res, err := sess.Maximize(stopandstare.Query{K: q.k, Epsilon: q.eps})
		if err != nil {
			return nil, fmt.Errorf("oracle %s k=%d: %w", t.name, q.k, err)
		}
		q.want = answer{seeds: res.Seeds, samples: res.Samples}
		maxStore[q.tenant] = max(maxStore[q.tenant], sess.Stats().StoreBytes)
		b, err := json.Marshal(serving.MaximizeRequest{Tenant: t.name, K: q.k, Epsilon: q.eps})
		if err != nil {
			return nil, err
		}
		q.body = b
	}
	return maxStore, nil
}

func sameOracles(a, b []serveQuery) error {
	for i := range a {
		if !a[i].want.matches(b[i].want.seeds, b[i].want.samples) {
			return fmt.Errorf("oracle %d differs between two set-ups of one seed", i)
		}
	}
	return nil
}

// start serves the manager's handler, wrapped in the span middleware when
// tr is non-nil, on a loopback listener.
func (env *serveEnv) start(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := serving.NewServer(env.mgr, serving.ServerConfig{}).Handler()
	env.srv = &http.Server{Handler: handlerSpans(tr, h)}
	env.url = "http://" + ln.Addr().String()
	env.done = make(chan struct{})
	go func() {
		defer close(env.done)
		_ = env.srv.Serve(ln) // ErrServerClosed after Shutdown
	}()
	return nil
}

func (env *serveEnv) close() {
	if env.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = env.srv.Shutdown(ctx) // in-flight requests finish first
		cancel()
		<-env.done
	}
	if env.mgr != nil {
		env.mgr.Close()
	}
	for _, t := range env.tenants {
		ris.DropCachedPlans(t.g)
	}
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// client is one closed-loop HTTP client with a single connection.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send posts q and fills out from the response: ok only when the status is
// 200 and the answer equals q's oracle.
func (c *client) send(q *serveQuery, body []byte, header string, out *outcome) error {
	req, err := http.NewRequest(http.MethodPost, c.url+"/maximize", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(queryHeader, header)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		out.lat = time.Since(t0)
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		out.lat = time.Since(t0)
		return err
	}
	var mr serving.MaximizeResponse
	err = json.Unmarshal(reply, &mr)
	out.lat = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	if err != nil {
		return err
	}
	out.ok = q.want.matches(mr.Seeds, mr.Samples)
	out.samples, out.iters, out.warm, out.coalesced = mr.Samples, mr.Iterations, mr.Warm, mr.Coalesced
	out.elapsed = time.Duration(mr.ElapsedMS * float64(time.Millisecond))
	if !out.ok {
		return errors.New("answer differs from its oracle")
	}
	return nil
}

// body returns the request body of query qi in the given round.
func (env *serveEnv) body(qi, round int) []byte {
	if env.turn != nil {
		return env.turn.body(&env.queries[qi], round)
	}
	return env.queries[qi].body
}

// warmUp sends each query in order on one client and checks the answers.
func (env *serveEnv) warmUp(qs []int) ([]outcome, error) {
	c := newClient(env.url)
	defer c.close()
	outs := make([]outcome, len(qs))
	for i, qi := range qs {
		if err := c.send(&env.queries[qi], env.body(qi, 0), "", &outs[i]); err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", qi, err)
		}
	}
	return outs, nil
}

// serveTimed runs the timed phase: o.clients closed-loop clients over the
// stream; traced items carry their query id to the handler middleware.
func serveTimed(o *options, env *serveEnv, s *stream, tr *tracer) ([]outcome, time.Duration) {
	clients := make([]*client, o.clients)
	for i := range clients {
		clients[i] = newClient(env.url)
		defer clients[i].close()
	}
	return drive(o.clients, o.duration(), s, func(c int, out *outcome) {
		q := &env.queries[out.it.q]
		body := env.body(out.it.q, out.idx/s.perRound)
		// A failed send leaves out.ok false, which counts as a failure.
		if !out.it.traced {
			_ = clients[c].send(q, body, "", out)
			return
		}
		t0 := time.Now()
		root := tr.open("client", int64(out.idx), 0, t0)
		_ = clients[c].send(q, body, fmt.Sprintf("%d/%d", out.idx, root), out)
		tr.close(root, t0.Add(out.lat))
	})
}

// statsWatch samples Manager.Stats during the timed phase: store
// residency and its tiers, plan and graph bytes, the churn counters, and
// the RR sets restored by sessions recovered while it watched.
type statsWatch struct {
	mgr   *serving.Manager
	turn  *turnover // churn-serve only: snapshots of retired tenants
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	samples                           []watchSample
	seen                              map[string]int64 // tenant → eviction count whose recovery was counted
	persists                          map[string]int64 // tenant → snapshots committed, kept after it is removed
	planMax, graphResMax, graphMapMax int64
}

type watchSample struct {
	at                          time.Duration
	store, spilled, snapshot    int64
	evictions, persists, spills int64
	recovered                   int64 // RR sets recovered since the previous sample
}

func startWatch(mgr *serving.Manager, turn *turnover) *statsWatch {
	w := &statsWatch{mgr: mgr, turn: turn, start: time.Now(), stop: make(chan struct{}), done: make(chan struct{}),
		seen: map[string]int64{}, persists: map[string]int64{}}
	for _, t := range mgr.Stats().Tenants {
		w.persists[t.Name] = t.Persists
		if t.Resident {
			w.seen[t.Name] = t.Evictions // built before the watch began
		}
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				w.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *statsWatch) sample() {
	st := w.mgr.Stats()
	s := watchSample{at: time.Since(w.start), store: st.StoreBytes, spilled: st.StoreSpilledBytes,
		snapshot: st.SnapshotBytes, evictions: st.Evictions, spills: st.Spills}
	var plan, res, mapped int64
	for _, t := range st.Tenants {
		// Manager.Stats sums persists over current tenants only; keep the
		// counts of tenants removed since.
		w.persists[t.Name] = t.Persists
		if !t.Resident {
			continue
		}
		plan += t.Session.PlanBytes
		res += t.Session.GraphResidentBytes
		mapped += t.Session.GraphMappedBytes
		// A session built after an eviction that restored sets from its
		// snapshot: count it once per eviction epoch.
		if last, ok := w.seen[t.Name]; t.Session.Recovered > 0 && (!ok || last != t.Evictions) {
			s.recovered += int64(t.Session.Recovered)
			w.seen[t.Name] = t.Evictions
		}
	}
	if w.turn != nil {
		for name, n := range w.turn.retiredPersists() {
			w.persists[name] = n
		}
	}
	for _, n := range w.persists {
		s.persists += n
	}
	w.planMax, w.graphResMax, w.graphMapMax = max(w.planMax, plan), max(w.graphResMax, res), max(w.graphMapMax, mapped)
	w.samples = append(w.samples, s)
}

func (w *statsWatch) Stop() {
	close(w.stop)
	<-w.done
}

// meanMB averages a residency gauge over the samples.
func (w *statsWatch) meanMB(f func(watchSample) int64) float64 {
	var sum float64
	for _, s := range w.samples {
		sum += mb(f(s))
	}
	return sum / float64(max(len(w.samples), 1))
}

// halves splits the run's evictions, persists, spills and recovered sets
// at the midpoint of the timed phase.
func (w *statsWatch) halves(d time.Duration) (first, second watchSample) {
	s0, last := w.samples[0], w.samples[len(w.samples)-1]
	mid := s0
	for _, s := range w.samples {
		if s.at > d/2 {
			second.recovered += s.recovered
			continue
		}
		mid = s
		first.recovered += s.recovered
	}
	first.evictions, second.evictions = mid.evictions-s0.evictions, last.evictions-mid.evictions
	first.persists, second.persists = mid.persists-s0.persists, last.persists-mid.persists
	first.spills, second.spills = mid.spills-s0.spills, last.spills-mid.spills
	return first, second
}

// serveMetrics fills the end-to-end metrics and, when traced, the serving
// and session per-layer metrics of a serving run.
func serveMetrics(o *options, r *report, s *stream, outs []outcome, wall time.Duration,
	setup, heap float64, st0, st1 serving.Stats, w *statsWatch, tr *tracer) {
	latencyMetrics(r, outs, s.perRound, wall)
	r.e2e["setup_s"] = setup
	r.e2e["rr_sets_per_query"] = meanOver(outs, s.perRound, false, func(o *outcome) float64 { return float64(o.samples) })
	r.e2e["store_resident_mb"] = w.meanMB(func(s watchSample) int64 { return s.store })
	r.e2e["heap_peak_mb"] = heap
	r.detail["setup_s"] = setup
	r.detail["rounds"] = len(outs) / s.perRound
	r.detail["coalesced"] = st1.Coalesced - st0.Coalesced
	r.detail["evictions"] = st1.Evictions - st0.Evictions
	if !o.trace {
		return
	}
	overhead(r, outs)
	spans := tr.all()
	client, handler := map[int64]time.Duration{}, map[int64]time.Duration{}
	for _, sp := range spans {
		switch sp.Name {
		case "client":
			client[sp.Query] = time.Duration(sp.End - sp.Start)
		case "serving.handler":
			handler[sp.Query] = time.Duration(sp.End - sp.Start)
		}
	}
	var hSum, oSum, tSum, elSum time.Duration
	n, grew := 0, 0
	for _, out := range outs {
		if !out.ok {
			continue
		}
		if !out.warm && !out.coalesced {
			grew++
		}
		// A coalesced follower carries its leader's elapsed_ms but joined
		// the flight late, so only executed requests split the handler.
		h, ok := handler[int64(out.idx)]
		if !out.it.traced || !ok || out.coalesced {
			continue
		}
		hSum += h
		oSum += h - out.elapsed
		tSum += client[int64(out.idx)] - h
		elSum += out.elapsed
		n++
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(max(n, 1)) }
	r.layer["serving.handler_ms"] = per(hSum)
	r.layer["serving.overhead_ms"] = per(oSum)
	r.layer["serving.transport_ms"] = per(tSum)
	r.layer["core.elapsed_ms"] = per(elSum)
	r.layer["core.checkpoints_per_query"] = meanOver(outs, s.perRound, true, func(o *outcome) float64 { return float64(o.iters) })
	q := st1.Queries - st0.Queries
	r.layer["serving.coalesced_frac"] = float64(st1.Coalesced-st0.Coalesced) / float64(max(q, 1))
	r.layer["serving.rejected"] = float64(st1.Rejected - st0.Rejected)
	r.layer["serving.evictions"] = float64(st1.Evictions - st0.Evictions)
	r.layer["serving.spills"] = float64(st1.Spills - st0.Spills)
	r.layer["serving.persists"] = float64(w.samples[len(w.samples)-1].persists - w.samples[0].persists)
	r.layer["session.growths"] = float64(grew)
	r.layer["session.warm_frac"] = meanOver(outs, s.perRound, false, func(o *outcome) float64 { return b2f(o.warm) })
	r.layer["ris.spilled_mb"] = w.meanMB(func(s watchSample) int64 { return s.spilled })
	r.layer["ris.snapshot_mb"] = w.meanMB(func(s watchSample) int64 { return s.snapshot })
	var rec int64
	for _, s := range w.samples {
		rec += s.recovered
	}
	r.layer["ris.recovered_sets"] = float64(rec)
	r.layer["ris.plan_mb"] = mb(w.planMax)
	r.layer["graph.resident_mb"] = mb(w.graphResMax)
	r.layer["graph.mapped_mb"] = mb(w.graphMapMax)
	r.spans = spans
}

// warm-serve: 4 heap-graph IC tenants (ChungLu 20k/120k), uniform over
// (tenant, k ∈ {10, 20, 50}) at ε = 0.1, every store warmed in set-up.

func setupWarm(o *options, tr *tracer, prev *serveEnv) (*serveEnv, error) {
	env := &serveEnv{}
	for i := 0; i < 4; i++ {
		g, err := tenantGraph(uint64(10 + i))
		if err != nil {
			return nil, err
		}
		env.tenants = append(env.tenants, tenantSpec{name: fmt.Sprintf("t%d", i), g: g, model: diffusion.IC,
			sopt: stopandstare.SessionOptions{Seed: derive(inputSeed, uint64(20+i)), Workers: o.nproc}})
		for _, k := range []int{10, 20, 50} {
			env.units = append(env.units, []item{{q: len(env.queries)}})
			env.queries = append(env.queries, serveQuery{tenant: i, k: k, eps: 0.1})
		}
	}
	if _, err := env.oracles(o.nproc); err != nil {
		return nil, err
	}
	if prev != nil {
		if err := sameOracles(env.queries, prev.queries); err != nil {
			return nil, err
		}
	}
	env.mgr = serving.NewManager(serving.Config{})
	for _, t := range env.tenants {
		if err := env.mgr.AddTenant(t.name, serving.TenantConfig{Graph: t.g, Model: t.model, Session: t.sopt}); err != nil {
			return nil, err
		}
	}
	if err := env.start(tr); err != nil {
		return nil, err
	}
	all := make([]int, len(env.queries))
	for i := range all {
		all[i] = i
	}
	// Two passes: the first grows every store, the second must be warm.
	if _, err := env.warmUp(all); err != nil {
		env.close()
		return nil, err
	}
	outs, err := env.warmUp(all)
	if err != nil {
		env.close()
		return nil, err
	}
	for i, out := range outs {
		if !out.warm {
			env.close()
			return nil, fmt.Errorf("warm-up query %d still grew its store", i)
		}
	}
	return env, nil
}

func runWarmServe(o *options) (*report, error) {
	r := newReport()
	tr := newTracer(o.trace)
	setup, env, err := timeSetups(
		func(prev *serveEnv) (*serveEnv, error) { return setupWarm(o, tr, prev) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	s := newStream(env.units, derive(o.seed, 2), o.trace)
	st0 := env.mgr.Stats()
	w := startWatch(env.mgr, nil)
	hp := startHeapPeak()
	outs, wall := serveTimed(o, env, s, tr)
	heap := hp.Stop()
	w.Stop()
	st1 := env.mgr.Stats()
	serveMetrics(o, r, s, outs, wall, setup, heap, st0, st1, w, tr)
	if o.trace {
		if err := warmReplay(o, r, env, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// warmReplay splits the warm query into its layers, which the server does
// not expose: it replays every distinct query twice, single-client,
// through core.DSSAWith over the timed Exec on a store pre-grown to the
// tenant's resident length, with per-k solvers kept across queries as a
// warm Session keeps them. Answers must equal the served ones.
func warmReplay(o *options, r *report, env *serveEnv, tr *tracer) error {
	execs := make([]*timedExec, len(env.tenants))
	for i, t := range env.tenants {
		smp, err := ris.NewSampler(t.g, t.model)
		if err != nil {
			return err
		}
		st := ris.NewStore(smp, t.sopt.Seed, ris.StoreOptions{Workers: o.nproc})
		for _, q := range env.queries {
			if q.tenant == i {
				st.GenerateTo(int(q.want.samples))
			}
		}
		execs[i] = newTimedExec(st, tr)
	}
	var samples []*layerSample
	rng := rand.New(rand.NewSource(int64(derive(o.seed, 4))))
	for pass := 0; pass < 2; pass++ {
		for _, qi := range rng.Perm(len(env.queries)) {
			q := &env.queries[qi]
			ex := execs[q.tenant]
			id := int64(-1 - len(samples)) // replay query ids are negative
			root := tr.open("replay", id, 0, time.Now())
			res, err := ex.dssa(core.Options{K: q.k, Epsilon: q.eps, Seed: env.tenants[q.tenant].sopt.Seed, Workers: o.nproc}, id, root)
			tr.close(root, time.Now())
			if err != nil {
				return err
			}
			if !q.want.matches(res.Seeds, res.TotalSamples) {
				r.invalidf("warm replay of query %d differs from its oracle", qi)
			}
			l := ex.l
			samples = append(samples, &l)
		}
	}
	served := r.layer["core.elapsed_ms"]
	addLayers(r, samples)
	r.detail["replay_core_elapsed_ms"] = r.layer["core.elapsed_ms"]
	r.layer["core.elapsed_ms"] = served
	r.spans = tr.all()
	return nil
}

// churn-serve: 6 tenants opened lazily from mapped .sasg files (IC and LT
// alternating, odd tenants with a spill tier), durable sessions, a
// Zipf-skewed tenant choice, k ∈ {10, 20, 50} × ε ∈ {0.2, 0.1}, and a
// global budget below what one freshly grown store holds.
//
// A durable store that has answered its longest query never grows again,
// and a recovered store aliases its snapshot mapping, so it holds almost
// no resident bytes: left alone the tenants settle within a second and
// the budget stops binding. The tenants therefore turn over: every
// churnGenRounds rounds each one is replaced by a fresh generation (same
// graph and seed, empty state directory) that grows from nothing, and the
// generation two back is retired. Turnovers are staggered, one tenant per
// round. A growing store without a spill tier pushes the others out
// (persist, later recover); one with a spill tier is spilled first.
const (
	churnTenants    = 6
	churnSlots      = 120 // queries per round, split across tenants by Zipf(1): every tenant gets all six (k, ε)
	churnGenRounds  = 6
	churnBudgetFrac = 0.5 // budget as a share of the mean largest store of the tenants without a spill tier
	// The spill tier's own threshold sits above any store here, so spilling
	// happens when the manager's budget asks for it.
	churnSpillBytes = 64 << 20
)

// zipfCounts splits n slots across m ranks with weights 1/(rank+1),
// largest remainder first.
func zipfCounts(n, m int) []int {
	w := make([]float64, m)
	var sum float64
	for i := range w {
		w[i] = 1 / float64(i+1)
		sum += w[i]
	}
	counts := make([]int, m)
	left := n
	for i := range w {
		counts[i] = int(math.Floor(w[i] / sum * float64(n)))
		left -= counts[i]
	}
	for i := 0; left > 0; i = (i + 1) % m {
		counts[i]++
		left--
	}
	return counts
}

// turnover keeps every tenant's generations ahead of the clients. Clients
// only report the round they have reached; a goroutine of its own adds each
// tenant's next generation ahead of use and retires the one two back, which
// no client can still be sending to. The retirement's drain, snapshot and
// state deletion therefore run beside the clients, not inside their loop,
// and their time is reported as churn.turnover_ms. A new generation opens
// its .sasg file and compiles its sampling plan on its first query, inside
// that query's latency, because plans are cached per open graph.
type turnover struct {
	env      *serveEnv
	stateDir string
	exited   chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	round   int // highest round a client has reached
	done    int // round the goroutine has caught up with
	stopped bool
	next    []int            // per tenant: generations [0, next) have been added
	gone    []int            // per tenant: generations [0, gone) have been retired
	retired map[string]int64 // retired generation → snapshots it committed
	errs    []error
	work    time.Duration // spent adding and retiring generations in the timed phase
	steps   int           // generations retired in the timed phase
	waits   int           // queries that found their generation not yet added
}

func newTurnover(env *serveEnv, stateDir string) *turnover {
	n := len(env.tenants)
	t := &turnover{env: env, stateDir: stateDir, next: make([]int, n), gone: make([]int, n), retired: map[string]int64{}}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func genName(base string, g int) string { return fmt.Sprintf("%s-g%d", base, g) }

// generation is the generation of tenant i that serves round r; tenants
// turn over in staggered rounds.
func generation(i, r int) int { return (r + i*churnGenRounds/churnTenants) / churnGenRounds }

// body returns the request body of q in the given round.
func (t *turnover) body(q *serveQuery, round int) []byte {
	i := q.tenant
	g := generation(i, round)
	t.mu.Lock()
	if round > t.round {
		t.round = round
		t.cond.Broadcast()
	}
	if t.next[i] <= g {
		// Added a round ahead, so this happens only when the goroutine
		// falls that far behind.
		t.waits++
		for t.next[i] <= g {
			t.cond.Wait()
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(serving.MaximizeRequest{Tenant: genName(t.env.tenants[i].name, g), K: q.k, Epsilon: q.eps})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// advance brings every tenant to round r: generations up to one past the
// current one added, those before the previous one retired. Only one
// goroutine at a time calls it, so it reads next and gone unlocked.
func (t *turnover) advance(r int) {
	for i, spec := range t.env.tenants {
		g := generation(i, r)
		for t.next[i] <= g+1 {
			t0 := time.Now()
			err := t.env.mgr.AddTenant(genName(spec.name, t.next[i]),
				serving.TenantConfig{GraphFile: spec.file, Model: spec.model, Session: spec.sopt})
			t.mu.Lock()
			if err != nil {
				t.errs = append(t.errs, err)
			}
			t.next[i]++
			t.work += time.Since(t0)
			t.cond.Broadcast()
			t.mu.Unlock()
		}
		for t.gone[i] < g-1 {
			t0 := time.Now()
			name := genName(spec.name, t.gone[i])
			dir := filepath.Join(t.stateDir, name)
			err := t.env.mgr.RemoveTenant(name)
			// The store is persisted on the way out, after Manager.Stats
			// stopped listing the tenant. Its state directory started
			// empty, so the committed snapshot's generation counts every
			// snapshot the tenant took.
			info, ierr := ris.ReadSnapshotInfo(dir)
			if errors.Is(ierr, ris.ErrNoSnapshot) {
				ierr = nil
			}
			// Then its state is deleted, as a departed tenant's would be.
			os.RemoveAll(dir)
			t.mu.Lock()
			for _, e := range []error{err, ierr} {
				if e != nil {
					t.errs = append(t.errs, e)
				}
			}
			t.retired[name] = int64(info.Generation)
			t.gone[i]++
			t.steps++
			t.work += time.Since(t0)
			t.mu.Unlock()
		}
	}
}

// start runs the turnover goroutine for the timed phase.
func (t *turnover) start() {
	t.work, t.steps = 0, 0 // set-up's additions are set-up time
	t.exited = make(chan struct{})
	go func() {
		defer close(t.exited)
		t.mu.Lock()
		for {
			for !t.stopped && t.done == t.round {
				t.cond.Wait()
			}
			if t.stopped {
				t.mu.Unlock()
				return
			}
			r := t.round
			t.mu.Unlock()
			t.advance(r)
			t.mu.Lock()
			t.done = r
		}
	}()
}

// stop ends the goroutine once its current step is done.
func (t *turnover) stop() {
	t.mu.Lock()
	t.stopped = true
	t.cond.Broadcast()
	t.mu.Unlock()
	<-t.exited
}

// retiredPersists returns the snapshot counts of the retired generations.
func (t *turnover) retiredPersists() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.retired)
}

func setupChurn(o *options, rep int, tr *tracer, prev *serveEnv) (*serveEnv, error) {
	env := &serveEnv{dir: filepath.Join(o.workdir, fmt.Sprintf("churn%d", rep))}
	spillDir := filepath.Join(env.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	type combo struct {
		k   int
		eps float64
	}
	var combos []combo
	for _, eps := range []float64{0.2, 0.1} {
		for _, k := range []int{10, 20, 50} {
			combos = append(combos, combo{k, eps})
		}
	}
	rng := rand.New(rand.NewSource(int64(derive(inputSeed, 5))))
	for i, n := range zipfCounts(churnSlots, churnTenants) {
		g, err := tenantGraph(uint64(30 + i))
		if err != nil {
			return nil, err
		}
		t := tenantSpec{name: fmt.Sprintf("c%d", i), g: g, model: diffusion.IC,
			file: filepath.Join(env.dir, fmt.Sprintf("c%d.sasg", i)),
			sopt: stopandstare.SessionOptions{Seed: derive(inputSeed, uint64(40+i)), Workers: o.nproc}}
		if i%2 == 1 {
			t.model = diffusion.LT
			t.sopt.SpillBudgetBytes, t.sopt.SpillDir = churnSpillBytes, spillDir
		}
		env.tenants = append(env.tenants, t)
		first := len(env.queries)
		for _, c := range combos {
			env.queries = append(env.queries, serveQuery{tenant: i, k: c.k, eps: c.eps})
		}
		order := rng.Perm(len(combos))
		for j := 0; j < n; j++ {
			env.units = append(env.units, []item{{q: first + order[j%len(combos)]}})
		}
	}
	maxStore, err := env.oracles(o.nproc)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		if err := sameOracles(env.queries, prev.queries); err != nil {
			return nil, err
		}
	}
	// A fresh store without a spill tier must overflow the budget alone.
	var unspillable, n int64
	for i, b := range maxStore {
		if env.tenants[i].sopt.SpillBudgetBytes == 0 {
			unspillable += b
			n++
		}
	}
	budget := int64(churnBudgetFrac * float64(unspillable) / float64(n))
	state := filepath.Join(env.dir, "state")
	env.mgr = serving.NewManager(serving.Config{BudgetBytes: budget, StateDir: state})
	env.turn = newTurnover(env, state)
	for _, t := range env.tenants {
		if err := t.g.WriteMappedFile(t.file); err != nil {
			return nil, err
		}
	}
	env.turn.advance(0)
	if err := env.start(tr); err != nil {
		return nil, err
	}
	// Open every tenant once: map its graph, compile its plan.
	var first []int
	for qi := 0; qi < len(env.queries); qi += len(combos) {
		first = append(first, qi)
	}
	if _, err := env.warmUp(first); err != nil {
		env.close()
		return nil, err
	}
	for _, t := range env.tenants {
		ris.DropCachedPlans(t.g) // the heap graphs served only the oracles
	}
	return env, nil
}

func runChurnServe(o *options) (*report, error) {
	r := newReport()
	tr := newTracer(o.trace)
	rep := 0
	setup, env, err := timeSetups(
		func(prev *serveEnv) (*serveEnv, error) { rep++; return setupChurn(o, rep, tr, prev) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	s := newStream(env.units, derive(o.seed, 2), o.trace)
	st0 := env.mgr.Stats()
	w := startWatch(env.mgr, env.turn)
	hp := startHeapPeak()
	env.turn.start()
	outs, wall := serveTimed(o, env, s, tr)
	env.turn.stop()
	heap := hp.Stop()
	w.Stop()
	st1 := env.mgr.Stats()
	serveMetrics(o, r, s, outs, wall, setup, heap, st0, st1, w, tr)

	// Churn-sustain guard: each half of the run must evict, persist,
	// recover and spill, or the workload has turned into a warm one.
	h1, h2 := w.halves(o.duration())
	for i, h := range []watchSample{h1, h2} {
		if h.evictions == 0 || h.persists == 0 || h.recovered == 0 || h.spills == 0 {
			r.invalidf("churn stopped in half %d: evictions=%d persists=%d recovered=%d spills=%d",
				i+1, h.evictions, h.persists, h.recovered, h.spills)
		}
	}
	for _, err := range env.turn.errs {
		r.invalidf("tenant turnover: %v", err)
	}
	r.detail["budget_mb"] = mb(st1.BudgetBytes)
	r.detail["halves"] = []map[string]int64{halfMap(h1), halfMap(h2)}
	r.detail["turnovers"] = env.turn.steps
	r.detail["turnover_ms"] = ms(env.turn.work)
	r.detail["turnover_waits"] = env.turn.waits
	if o.trace {
		r.layer["churn.turnover_ms"] = ms(env.turn.work) / float64(max(env.turn.steps, 1))
		for i, h := range []watchSample{h1, h2} {
			p := fmt.Sprintf("churn.h%d_", i+1)
			r.layer[p+"evictions"] = float64(h.evictions)
			r.layer[p+"persists"] = float64(h.persists)
			r.layer[p+"recovered_sets"] = float64(h.recovered)
			r.layer[p+"spills"] = float64(h.spills)
		}
	}
	return r, nil
}

func halfMap(h watchSample) map[string]int64 {
	return map[string]int64{"evictions": h.evictions, "persists": h.persists, "recovered_sets": h.recovered, "spills": h.spills}
}
