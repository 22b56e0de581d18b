package ris

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"stopandstare/internal/epoch"
)

// ShardedCollection is the RR-set store: a growing stream of RR sets
// R₁, R₂, … partitioned across N ≥ 1 shards, each owning its own arena +
// CSR index (a segment). It supports the access patterns of all the
// algorithms in this repository: SSA doubles the whole stream and runs
// max-coverage over all of it; D-SSA splits the stream into a prefix R_t
// and a suffix R^c_t (Alg. 4 lines 6–7), so range queries are first-class;
// IMM/TIM grow the stream to an explicit θ.
//
// Every growth call splits its contiguous global id range [from, to) into
// N contiguous sub-ranges — one per shard, each owning a disjoint id range
// — and the shards generate their sub-ranges in parallel, each with its
// own worker pool and per-set re-seeded rng.Source streams. With one
// in-process shard (the default topology) local and global ids coincide,
// so the segment keeps no gid table and its postings runs are globally
// ascending.
//
// Because RR set i is always produced by the PRNG stream (seed, i)
// (SeedStream), every topology holds the same sample stream: Set(i),
// Width, Items, every coverage count, and therefore every algorithm result
// (Seeds, Coverage, checkpoint traces) are bit-identical for any shard
// count and any worker count. That equivalence is what makes sharding safe
// to grow into a NUMA- or machine-distributed serving layer: the
// algorithms cannot observe the topology.
//
// Postings and coverage queries are answered by per-shard walks of the
// epoch-aligned CSR blocks, merged at the shard boundary: each shard's
// blocks store global ids (ascending within the shard), and the Postings
// iterator simply walks the shards in turn. Consumers of the Store
// interface are order-insensitive across runs (see Store), so no k-way
// merge is needed on the hot path.
//
// Shards may also live in other processes: with remotes non-nil, shard s is
// proxied by a RemoteShard client and segs[s] is the mirror arena its
// Generate stream fills (see RemoteShard). Set/ForEachSet/CoverageRange are
// served from the mirrors exactly as in-process; growth, PostingsRange
// and CoverageRangeSeeds fan out to the workers. Bit-identity holds by the
// same argument as in-process sharding — set content depends only on the
// global id — and the differential harness proves it per topology.
type ShardedCollection struct {
	sampler      *Sampler
	seed         uint64
	shardWorkers int

	segs    []*segment
	remotes []*RemoteShard // nil ⇒ all shards in-process
	epochs  []genEpoch
	length  int
	spill   *spillState // shared spill tier across all segs; nil ⇒ disabled

	covMark epoch.Marks // visited ids for CoverageRangeSeeds, grows to Len()
}

// genEpoch records how one growth call's global id range [from, to) was
// split across shards: shard s owns global ids [bounds[s], bounds[s+1]),
// which start at local set index base[s] within its segment. The table is
// what makes Set(i) O(log epochs): binary-search the epoch, compute the
// shard by the even-split formula, then index the segment directly.
type genEpoch struct {
	from, to int
	bounds   []int // len = shards+1, ascending, bounds[0]=from, bounds[S]=to
	base     []int // len = shards; local index of bounds[s] in segs[s]
}

// NewShardedCollection creates an empty in-process store with the given
// shard count (≤ 1 selects one shard) and per-shard generation workers
// (≤ 0 selects max(1, GOMAXPROCS/shards), keeping the total worker budget
// at one per core).
func NewShardedCollection(s *Sampler, seed uint64, shards, shardWorkers int) *ShardedCollection {
	if shards < 1 {
		shards = 1
	}
	if shardWorkers <= 0 {
		shardWorkers = runtime.GOMAXPROCS(0) / shards
		if shardWorkers < 1 {
			shardWorkers = 1
		}
	}
	sc := &ShardedCollection{
		sampler:      s,
		seed:         seed,
		shardWorkers: shardWorkers,
		segs:         make([]*segment, shards),
	}
	n := s.g.NumNodes()
	for i := range sc.segs {
		sc.segs[i] = newSegment(n)
		if shards > 1 {
			sc.segs[i].gids = []int32{} // non-nil: local indices map through gids
		}
	}
	return sc
}

// NewRemoteShardedCollection creates an empty remote-sharded store with one
// shard per worker address in opt.RemoteWorkers. Workers are dialed lazily
// on first use (opt.RemoteDial overrides the transport; tests inject
// net.Pipe). The per-shard mirror segments hold the arena only — CSR blocks
// live worker-side.
func NewRemoteShardedCollection(s *Sampler, seed uint64, opt StoreOptions) *ShardedCollection {
	addrs := opt.RemoteWorkers
	S := len(addrs)
	sc := &ShardedCollection{
		sampler:      s,
		seed:         seed,
		shardWorkers: 1, // mirrors never sample; parallelism lives worker-side
		segs:         make([]*segment, S),
		remotes:      make([]*RemoteShard, S),
	}
	n := s.g.NumNodes()
	dial := opt.RemoteDial
	if dial == nil {
		dial = defaultDial
	}
	timeout := opt.RemoteTimeout
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	workers := opt.ShardWorkers
	if workers < 0 {
		workers = 0 // worker-side default
	}
	spec := shardSpec{
		n:       uint32(n),
		model:   uint8(s.model),
		seed:    seed,
		workers: uint32(workers),
		weights: s.weights,
	}
	instance := nextShardInstance()
	for i := range sc.segs {
		sc.segs[i] = newSegment(n)
		sc.segs[i].gids = []int32{}
		sc.remotes[i] = &RemoteShard{
			addr:    addrs[i],
			dial:    dial,
			timeout: timeout,
			key:     fmt.Sprintf("%x-%d/%d", instance, i, S),
			spec:    spec,
			seg:     sc.segs[i],
			nonce:   instance,
		}
	}
	return sc
}

// Sampler returns the store's sampler.
func (sc *ShardedCollection) Sampler() *Sampler { return sc.sampler }

// Remote reports whether the store's shards live in worker processes.
func (sc *ShardedCollection) Remote() bool { return sc.remotes != nil }

// Shards returns the number of shards.
func (sc *ShardedCollection) Shards() int { return len(sc.segs) }

// Len returns the number of RR sets generated so far.
func (sc *ShardedCollection) Len() int { return sc.length }

// Items returns the total number of node entries across all RR sets.
func (sc *ShardedCollection) Items() int64 {
	var items int64
	for _, sg := range sc.segs {
		items += sg.items()
	}
	return items
}

// Width returns Σ_j w(R_j) over all RR sets.
func (sc *ShardedCollection) Width() int64 {
	var w int64
	for _, sg := range sc.segs {
		w += sg.width
	}
	return w
}

// NumNodes returns the node count of the underlying graph.
func (sc *ShardedCollection) NumNodes() int { return sc.sampler.g.NumNodes() }

// Scale returns the sampler scale (n or Γ).
func (sc *ShardedCollection) Scale() float64 { return sc.sampler.scale }

// Bytes reports the RESIDENT memory held across all shards plus the epoch
// table and the sampler's compiled plan if one was built (shared, counted
// once). For a remote-sharded store this is the coordinator-resident
// footprint — the mirror arenas — not the worker-side CSR blocks, and data
// spilled to disk is likewise excluded (SpillStats reports that tier), which
// is exactly what a coordinator's byte budget (serving eviction) should
// meter.
func (sc *ShardedCollection) Bytes() int64 {
	b := int64(sc.covMark.Cap())*4 + sc.sampler.PlanBytes()
	for _, sg := range sc.segs {
		b += sg.residentBytes()
	}
	for i := range sc.epochs {
		e := &sc.epochs[i]
		b += int64(cap(e.bounds))*8 + int64(cap(e.base))*8
	}
	b += int64(cap(sc.epochs)) * 64
	return b
}

// SpillTo spills cold units across all shards until their total resident RR
// bytes are ≤ budget (0 spills everything spillable); a no-op without a
// spill tier. Counts as a mutation: callers must hold the same exclusivity
// as growth.
func (sc *ShardedCollection) SpillTo(budget int64) error {
	if sc.spill == nil {
		return nil
	}
	return sc.spill.enforce(budget, sc.segs)
}

// SpillStats reports the spill tier's accounting (zero value when the store
// was built without a spill budget).
func (sc *ShardedCollection) SpillStats() SpillStats {
	return spillStatsOf(sc.spill, sc.segs)
}

// epochIndex returns the index of the epoch containing global id i — the
// first epoch with to > i. Shared by locate and ForEachSet so the epoch
// bisection exists once.
func (sc *ShardedCollection) epochIndex(i int) int {
	lo, hi := 0, len(sc.epochs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sc.epochs[mid].to <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// locate resolves a global set id to (segment, local index) in a
// multi-shard store: O(log epochs) plus an O(1) shard-formula step. Hot
// bulk scans avoid it via ForEachSet; the solvers' covered-set walks pay it
// once per covered id, which is noise next to touching the set's members.
func (sc *ShardedCollection) locate(i int) (*segment, int) {
	e := &sc.epochs[sc.epochIndex(i)]
	// Even-split inverse: bounds[s] = from + s·count/S (floored), so the
	// shard index is s ≈ off·S/count, corrected by at most one step.
	S := len(sc.segs)
	count := e.to - e.from
	s := int(int64(i-e.from) * int64(S) / int64(count))
	if s > S-1 {
		s = S - 1
	}
	for e.bounds[s] > i {
		s--
	}
	for e.bounds[s+1] <= i {
		s++
	}
	return sc.segs[s], e.base[s] + (i - e.bounds[s])
}

// Set returns RR set i as a sub-slice of its shard's arena. The slice must
// not be modified, and is invalidated (but never mutated in place) by the
// next growth. With several shards the lookup costs a binary search over
// generate-epochs, so bulk scans should use ForEachSet instead; one shard
// indexes its arena directly (global id == local index there).
func (sc *ShardedCollection) Set(i int) []uint32 {
	if len(sc.segs) == 1 {
		return sc.segs[0].setAt(i)
	}
	sg, local := sc.locate(i)
	return sg.setAt(local)
}

// ForEachSet calls fn for every RR set with id in [from, to), in ascending
// id order, walking each epoch's shard sub-ranges directly so the per-id
// shard lookup of Set is paid once per contiguous run instead of per set.
func (sc *ShardedCollection) ForEachSet(from, to int, fn func(i int, set []uint32)) {
	if from < 0 {
		from = 0
	}
	if to > sc.length {
		to = sc.length
	}
	if from >= to {
		return
	}
	for ei := sc.epochIndex(from); ei < len(sc.epochs) && sc.epochs[ei].from < to; ei++ {
		e := &sc.epochs[ei]
		for s := range sc.segs {
			glo, ghi := e.bounds[s], e.bounds[s+1]
			if glo < from {
				glo = from
			}
			if ghi > to {
				ghi = to
			}
			if glo >= ghi {
				continue
			}
			sg := sc.segs[s]
			local := e.base[s] + (glo - e.bounds[s])
			for g := glo; g < ghi; g++ {
				fn(g, sg.setAt(local))
				local++
			}
		}
	}
}

// GenerateTo grows the store until it holds at least target RR sets.
// Background never cancels, and non-cancellation failures panic as
// *ShardError inside, so the error is structurally nil.
func (sc *ShardedCollection) GenerateTo(target int) {
	sc.GenerateToCtx(context.Background(), target)
}

// GenerateToCtx grows the store to at least target RR sets: the global id
// range [Len, target) is split into one contiguous sub-range per shard
// (balanced by SET COUNT via the even-split formula — RR-set sizes are
// skewed, so shard item loads can differ; balancing by items is impossible
// before sampling) and the shards sample their sub-ranges concurrently,
// each appending to its own arena and CSR index block. Output is
// bit-identical for any shard/worker count, because set content depends
// only on the global id.
//
// Cancellation is cooperative. In-process shards run a two-phase epoch —
// every shard SAMPLES its sub-range first (workers checking ctx between
// chunk claims), and only if all sampling completed is anything appended —
// so a canceled call mutates nothing. Remote shards reuse the
// all-or-nothing mirror rollback (segSnap): on cancellation every mirror is
// restored to its pre-call extent and ctx.Err() is returned; workers that
// did append stay ahead and the idempotent generate redelivery absorbs
// that on the next top-up.
func (sc *ShardedCollection) GenerateToCtx(ctx context.Context, target int) error {
	count := target - sc.length
	if count <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	from := sc.length
	S := len(sc.segs)
	e := genEpoch{
		from:   from,
		to:     from + count,
		bounds: make([]int, S+1),
		base:   make([]int, S),
	}
	for s := 0; s <= S; s++ {
		e.bounds[s] = from + int(int64(count)*int64(s)/int64(S))
	}
	for s := 0; s < S; s++ {
		e.base[s] = sc.segs[s].nsets()
	}
	if sc.remotes != nil {
		if err := sc.generateRemote(ctx, &e); err != nil {
			return err
		}
	} else {
		// Phase 1: sample every shard's sub-range; nothing is appended yet,
		// so cancellation (or a worker checking ctx mid-range) leaves the
		// store untouched.
		sampled := make([][]chunkResult, S)
		errs := make([]error, S)
		var wg sync.WaitGroup
		for s := 0; s < S; s++ {
			glo, ghi := e.bounds[s], e.bounds[s+1]
			if ghi <= glo {
				continue
			}
			wg.Add(1)
			go func(s, glo, ghi int) {
				defer wg.Done()
				sampled[s], errs[s] = sampleChunksCtx(ctx, sc.sampler, sc.seed, glo, ghi, sc.shardWorkers)
			}(s, glo, ghi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// Phase 2: pure in-memory appends, disjoint per shard.
		for s := 0; s < S; s++ {
			glo, ghi := e.bounds[s], e.bounds[s+1]
			if ghi <= glo {
				continue
			}
			wg.Add(1)
			go func(sg *segment, results []chunkResult, glo, ghi int) {
				defer wg.Done()
				lfrom := sg.nsets()
				sg.appendResults(results)
				if sg.gids != nil {
					sg.gids = slices.Grow(sg.gids, ghi-glo)
					for g := glo; g < ghi; g++ {
						sg.gids = append(sg.gids, int32(g))
					}
				}
				sg.appendIndexBlock(lfrom, sg.nsets(), sc.shardWorkers)
			}(sc.segs[s], sampled[s], glo, ghi)
		}
		wg.Wait()
	}
	sc.epochs = append(sc.epochs, e)
	sc.length = from + count
	if sc.spill != nil {
		sc.spill.enforce(sc.spill.budget, sc.segs)
	}
	return nil
}

// generateRemote fans one epoch's shard sub-ranges out to the workers in
// parallel. On any shard failure every mirror is rolled back to its
// pre-call extent — the store's observable state is unchanged — and the
// failure is raised as a *ShardError panic (see ShardError), except for
// context cancellation, which is returned as a plain error (the caller
// chose to abandon the top-up; it is not a shard fault). Workers that did
// append stay ahead of the mirror; the idempotent generate redelivery and
// the nonce resync absorb that on the next attempt.
func (sc *ShardedCollection) generateRemote(ctx context.Context, e *genEpoch) error {
	S := len(sc.remotes)
	snaps := make([]segSnap, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		snaps[s] = sc.remotes[s].snapshot()
		glo, ghi := e.bounds[s], e.bounds[s+1]
		if ghi <= glo {
			continue
		}
		wg.Add(1)
		go func(s, glo, ghi int) {
			defer wg.Done()
			errs[s] = sc.remotes[s].generate(ctx, glo, ghi)
		}(s, glo, ghi)
	}
	wg.Wait()
	rollback := func() {
		for i := range sc.remotes {
			sc.remotes[i].restore(snaps[i])
		}
	}
	// Cancellation wins over shard faults: with a fired ctx, other shards'
	// errors are usually secondary (their RPCs were abandoned too).
	if err := ctx.Err(); err != nil {
		rollback()
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return err // custom ctx implementations have no recorded cause
	}
	for s, err := range errs {
		if err != nil {
			rollback()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			shardPanic(sc.remotes[s].addr, "generate", err)
		}
	}
	return nil
}

// PostingsUpto returns an iterator over the ids < upto of RR sets
// containing v, walking each shard's blocks in turn. No allocation.
func (sc *ShardedCollection) PostingsUpto(v uint32, upto int) Postings {
	return sc.PostingsRange(v, 0, upto)
}

// PostingsRange returns an iterator over the ids in [from, upto) of RR
// sets containing v — the window D-SSA's verification walks (the holdout
// half [half, 2·half)). Runs are ascending and disjoint; runs from
// different shards interleave in global id (see Store). No allocation for in-process
// shards; remote shards answer from worker-local CSR blocks, so the runs
// are fetched eagerly here (one RPC and one ascending run per worker) and
// the iterator drains them.
func (sc *ShardedCollection) PostingsRange(v uint32, from, upto int) Postings {
	if from < 0 {
		from = 0
	}
	if upto > sc.length {
		upto = sc.length
	}
	if sc.remotes != nil {
		if from >= upto {
			return Postings{}
		}
		pre := make([][]int32, 0, len(sc.remotes))
		for _, rs := range sc.remotes {
			run, err := rs.postings(v, from, upto)
			if err != nil {
				shardPanic(rs.addr, "postings", err)
			}
			if len(run) > 0 {
				pre = append(pre, run)
			}
		}
		return Postings{pre: pre, v: v, from: from, upto: upto}
	}
	return Postings{blocks: sc.segs[0].blocks, more: sc.segs[1:], sp: sc.spill, v: v, from: from, upto: upto}
}

// CoverageRangeSeeds counts the sets in [from, to) containing at least one
// seed via per-shard postings walks merged through the shared epoch-stamped
// mark set; duplicate seeds are tolerated (the union dedupes them). The
// walk reuses store-owned scratch, so calls must not race each other or
// growth (concurrent Postings/Set reads remain safe). Remote shards count worker-side — each walks
// its own CSR blocks and dedupes with its own marks — and since shards own
// disjoint global id ranges, the union count is the sum of shard counts and
// no arena or postings data crosses the wire.
func (sc *ShardedCollection) CoverageRangeSeeds(seeds []uint32, from, to int) int64 {
	if sc.remotes != nil {
		return sc.remoteCoverageSeeds(seeds, from, to)
	}
	return coverageRangeSeeds(sc, &sc.covMark, seeds, from, to)
}

// remoteCoverageSeeds fans the coverage count out to the workers in
// parallel and sums the per-shard counts.
func (sc *ShardedCollection) remoteCoverageSeeds(seeds []uint32, from, to int) int64 {
	if from < 0 {
		from = 0
	}
	if to > sc.length {
		to = sc.length
	}
	if from >= to || len(seeds) == 0 {
		return 0
	}
	var total int64
	errs := make([]error, len(sc.remotes))
	var wg sync.WaitGroup
	for s, rs := range sc.remotes {
		wg.Add(1)
		go func(s int, rs *RemoteShard) {
			defer wg.Done()
			cov, err := rs.coverageSeeds(seeds, from, to)
			if err != nil {
				errs[s] = err
				return
			}
			atomic.AddInt64(&total, cov)
		}(s, rs)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			shardPanic(sc.remotes[s].addr, "coverage", err)
		}
	}
	return total
}
