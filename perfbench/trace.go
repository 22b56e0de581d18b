package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stopandstare/internal/core"
	"stopandstare/internal/epoch"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// span is one timed interval at a layer boundary. Spans of one query share
// Query; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced paths run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, query int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// open records a span whose end is not known yet, so children can name it
// as their parent; close sets the end.
func (t *tracer) open(name string, query int64, parent int32, start time.Time) int32 {
	return t.record(name, query, parent, start, start)
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// layerSample is what one traced D-SSA query spent in each layer, with
// the query's own Result.Elapsed and checkpoint count.
type layerSample struct {
	grow, solve, coverage, dssa time.Duration
	sets, items, folded         int64
	bytesPerSet                 float64
	remoteBytes, dials          int64
	remoteWait                  time.Duration
	elapsed                     time.Duration
	iters                       int
}

// timedExec is the benchmark's core.Exec: the one-shot environment of
// core (a store, incremental solvers, no locking) with a span around every
// call into ris and maxcover. Like stopandstare.Session it keeps one solver
// per k and replaces it when a query's schedule restarts below the folded
// prefix, so a warm replay re-folds the resident stream exactly as the
// session does.
type timedExec struct {
	store   ris.Store
	solvers map[int]*maxcover.Solver
	marks   epoch.Marks
	tr      *tracer
	query   int64
	parent  int32
	l       layerSample
}

var _ core.Exec = (*timedExec)(nil)

func newTimedExec(st ris.Store, tr *tracer) *timedExec {
	return &timedExec{store: st, solvers: map[int]*maxcover.Solver{}, tr: tr}
}

func (e *timedExec) Store() ris.Store { return e.store }
func (e *timedExec) Acquire()         {}
func (e *timedExec) Release()         {}

func (e *timedExec) Ensure(target int) bool {
	n0, i0 := e.store.Len(), e.store.Items()
	if n0 >= target {
		return false
	}
	t0 := time.Now()
	e.store.GenerateTo(target)
	t1 := time.Now()
	e.tr.record("ris.grow", e.query, e.parent, t0, t1)
	e.l.grow += t1.Sub(t0)
	e.l.sets += int64(e.store.Len() - n0)
	e.l.items += e.store.Items() - i0
	return true
}

func (e *timedExec) Solve(upto, k int) maxcover.Result {
	sol := e.solvers[k]
	if sol == nil || upto < sol.Scanned() {
		sol = maxcover.NewSolver(e.store)
		e.solvers[k] = sol
	}
	s0 := sol.Scanned()
	t0 := time.Now()
	res := sol.Solve(upto, k)
	t1 := time.Now()
	e.tr.record("maxcover.solve", e.query, e.parent, t0, t1)
	e.l.solve += t1.Sub(t0)
	e.l.folded += int64(sol.Scanned() - s0)
	return res
}

func (e *timedExec) Coverage(seeds []uint32, from, to int) int64 {
	t0 := time.Now()
	c := ris.CoverageRangeSeedsMarks(e.store, &e.marks, seeds, from, to)
	t1 := time.Now()
	e.tr.record("ris.coverage", e.query, e.parent, t0, t1)
	e.l.coverage += t1.Sub(t0)
	return c
}

// dssa runs one traced D-SSA query over e under a core.dssa span whose
// parent is root. A remote store raises worker failures as panics (the
// ris.Store surface has no errors); they come back here as errors.
func (e *timedExec) dssa(opt core.Options, query int64, root int32) (res *core.Result, err error) {
	e.l = layerSample{}
	e.query = query
	t0 := time.Now()
	e.parent = e.tr.open("core.dssa", query, root, t0)
	defer func() {
		t1 := time.Now()
		e.tr.close(e.parent, t1)
		e.l.dssa = t1.Sub(t0)
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("traced query panicked: %v", p)
		}
	}()
	res, err = core.DSSAWith(opt, e)
	if err != nil {
		return nil, err
	}
	e.l.elapsed, e.l.iters = res.Elapsed, res.Iterations
	if e.store.Len() > 0 {
		plan := e.store.Sampler().PlanBytes()
		e.l.bytesPerSet = float64(max(e.store.Bytes()-plan, 0)) / float64(e.store.Len())
	}
	return res, nil
}

// addLayers folds the traced samples of whole rounds into the ris, maxcover
// and core per-layer metrics. Times are means per query; rates divide the
// totals.
func addLayers(r *report, samples []*layerSample) {
	var tot layerSample
	for _, s := range samples {
		tot.elapsed += s.elapsed
		tot.iters += s.iters
		tot.grow += s.grow
		tot.solve += s.solve
		tot.coverage += s.coverage
		tot.dssa += s.dssa
		tot.sets += s.sets
		tot.items += s.items
		tot.folded += s.folded
		tot.bytesPerSet += s.bytesPerSet
		tot.remoteBytes += s.remoteBytes
		tot.remoteWait += s.remoteWait
		tot.dials += s.dials
	}
	n := float64(max(len(samples), 1))
	per := func(d time.Duration) float64 { return ms(d) / n }
	rate := func(count int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(count) / d.Seconds() / 1000
	}
	self := tot.dssa - tot.grow - tot.solve - tot.coverage
	r.layer["ris.grow_ms"] = per(tot.grow)
	r.layer["ris.sets_drawn"] = float64(tot.sets) / n
	r.layer["ris.items_drawn"] = float64(tot.items) / n
	r.layer["ris.sample_rate_ksets_s"] = rate(tot.sets, tot.grow)
	r.layer["ris.store_bytes_per_set"] = tot.bytesPerSet / n
	r.layer["maxcover.solve_ms"] = per(tot.solve)
	r.layer["maxcover.sets_folded"] = float64(tot.folded) / n
	r.layer["maxcover.fold_rate_ksets_s"] = rate(tot.folded, tot.solve)
	r.layer["ris.coverage_ms"] = per(tot.coverage)
	r.layer["core.self_ms"] = per(self)
	r.layer["ris.remote_bytes"] = float64(tot.remoteBytes) / n
	r.layer["ris.remote_wait_ms"] = per(tot.remoteWait)
	r.layer["ris.remote_dials"] = float64(tot.dials) / n
	r.layer["core.elapsed_ms"] = per(tot.elapsed)
	// grow + solve + coverage + self is the whole D-SSA span by
	// construction; this is how much of Result.Elapsed that span covers.
	if tot.elapsed > 0 {
		r.layer["core.accounted_frac"] = float64(tot.dssa) / float64(tot.elapsed)
	}
	r.layer["core.checkpoints_per_query"] = float64(tot.iters) / n
	r.detail["traced_queries"] = len(samples)
}

// remoteMeter is the counting ris.DialFunc of traced remote stores: bytes
// both ways, time blocked reading (waiting for the worker), and dials.
type remoteMeter struct {
	bytes, waitNs, dials atomic.Int64
}

func (m *remoteMeter) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	m.dials.Add(1)
	return &meteredConn{Conn: c, m: m}, nil
}

type meteredConn struct {
	net.Conn
	m *remoteMeter
}

func (c *meteredConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.m.waitNs.Add(int64(time.Since(t0)))
	c.m.bytes.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.m.bytes.Add(int64(n))
	return n, err
}

// trackListener remembers the connections a shard server accepted, so the
// benchmark can sever those of a finished query's store (a store has no
// Close of its own).
type trackListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// queryHeader carries a traced request's query id and client span id
// ("<query>/<span>") to the middleware.
const queryHeader = "X-Perfbench-Query"

// handlerSpans is middleware around serving.Server.Handler(): it times the
// handler of every request that carries a query id.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qs, ps, found := strings.Cut(r.Header.Get(queryHeader), "/")
		q, err1 := strconv.ParseInt(qs, 10, 64)
		parent, err2 := strconv.ParseInt(ps, 10, 32)
		if !found || err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record("serving.handler", q, int32(parent), t0, time.Now())
	})
}
