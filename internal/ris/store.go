package ris

import (
	"context"
	"runtime"
	"time"
)

// Store is the RR-set store surface that SSA, D-SSA, IMM, TIM/TIM+, the
// max-coverage solvers and the TVM sweeps actually consume. The paper's
// optimality arguments (Thms 3–5) are agnostic to where RR sets live — only
// Len, coverage and the doubling schedule matter — so the algorithms are
// written against this interface and any topology that honours the
// contract below slots in unchanged.
//
// Contract (what makes topologies interchangeable bit-for-bit):
//
//   - RR set i is always the output of the PRNG stream (Seed, i), so
//     Set(i), Items, Width and every coverage count are identical across
//     worker counts, shard counts, remote, spilled and recovered stores.
//   - The stream is append-only: growth never moves or mutates an existing
//     set (D-SSA's prefix-stability requirement).
//   - PostingsRange yields each matching id exactly once, in ascending
//     runs; cross-run global ordering depends on the topology (one shard
//     gives globally ascending runs, several shards are ascending per
//     shard). Consumers must therefore be order-insensitive across runs —
//     the greedy solvers and the epoch-stamped coverage walks are.
//   - Stores are not safe for concurrent mutation; growth and the
//     scratch-reusing coverage walks must not race each other (concurrent
//     Set/Postings reads remain safe).
//
// The differential harness (differential_test.go) enforces the
// interchangeability: SSA, D-SSA and the TVM budget sweep must return
// bit-identical Seeds, Coverage and checkpoint traces on every topology
// for any shard/worker count.
type Store interface {
	// Sampler returns the sampler the store draws RR sets from.
	Sampler() *Sampler
	// Len returns the number of RR sets generated so far.
	Len() int
	// Items returns the total number of node entries across all RR sets.
	Items() int64
	// Width returns Σ_j w(R_j) over all RR sets (TIM's KPT input).
	Width() int64
	// Bytes approximates the resident memory of the store.
	Bytes() int64
	// NumNodes returns the node count of the underlying graph.
	NumNodes() int
	// Scale returns the estimator scale (n for RIS, Γ for WRIS).
	Scale() float64
	// Set returns RR set i; the slice must not be modified and is
	// invalidated (never mutated in place) by the next growth.
	Set(i int) []uint32
	// ForEachSet calls fn for every RR set with id in [from, to), in
	// ascending id order — the bulk-scan primitive solvers use to fold new
	// stream suffixes into gain counts without per-id lookup cost.
	ForEachSet(from, to int, fn func(i int, set []uint32))
	// GenerateTo grows the stream to at least target RR sets.
	GenerateTo(target int)
	// GenerateToCtx is GenerateTo with cooperative cancellation, checked
	// between sampling chunk claims (and between remote RPC attempts). On
	// cancellation it returns the context's error having mutated NOTHING —
	// stream, index and width are exactly as before the call, so a later
	// identical top-up regenerates the same bit-identical sets.
	GenerateToCtx(ctx context.Context, target int) error
	// PostingsUpto iterates the ids < upto of RR sets containing v.
	PostingsUpto(v uint32, upto int) Postings
	// PostingsRange iterates the ids in [from, upto) of RR sets containing v.
	PostingsRange(v uint32, from, upto int) Postings
	// CoverageRangeSeeds counts sets in [from, to) containing at least one
	// seed, via the inverted index.
	CoverageRangeSeeds(seeds []uint32, from, to int) int64
}

// SpilledStore is the optional Store extension of stores that can tier cold
// RR data (frozen arena extents and CSR index blocks) onto a disk spill
// file. ShardedCollection implements it; whether spilling is ENABLED is a
// per-store property (StoreOptions.SpillBudgetBytes > 0), reported by
// SpillStats().Enabled.
type SpilledStore interface {
	Store
	// SpillTo spills globally-coldest units until resident RR bytes drop to
	// budget (0 spills everything spillable). Counts as a mutation: callers
	// must hold the same exclusivity as growth. Returns the first spill
	// failure; after one the store stops spilling and stays consistent
	// resident-only.
	SpillTo(budget int64) error
	// SpillStats reports the spill tier's accounting.
	SpillStats() SpillStats
}

// The store implements the optional spill and snapshot extensions.
var (
	_ SpilledStore    = (*ShardedCollection)(nil)
	_ PersistentStore = (*ShardedCollection)(nil)
)

// StoreOptions selects and sizes a Store implementation.
type StoreOptions struct {
	// Workers bounds total generation/index parallelism (the hint
	// ShardWorkers is derived from); ≤0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Shards is the number of in-process id shards; ≤ 1 selects one
	// in-process shard. Results are bit-identical at any count.
	Shards int
	// ShardWorkers bounds per-shard generation parallelism; ≤0 derives
	// max(1, Workers/Shards) so the total worker budget holds.
	// For remote shards this is the sampling parallelism requested on each
	// worker (0 = the worker's own default).
	ShardWorkers int
	// RemoteWorkers lists shard-worker addresses ("host:port" TCP or
	// "unix:/path"); non-empty selects a remote-sharded ShardedCollection
	// with one shard per worker, and Shards is ignored. Results remain
	// bit-identical to every in-process topology.
	RemoteWorkers []string
	// RemoteDial overrides the worker transport (tests inject net.Pipe).
	RemoteDial DialFunc
	// RemoteTimeout bounds one worker RPC exchange; ≤0 selects
	// DefaultRemoteTimeout.
	RemoteTimeout time.Duration
	// SpillBudgetBytes > 0 enables the disk spill tier: after any growth
	// that leaves more than this many resident RR bytes (arena + index,
	// excluding the shared compiled plan), cold frozen arena extents and
	// cold CSR index blocks are appended to a spill file and served from a
	// shared read-only mapping instead of the heap. Results stay
	// bit-identical at every budget — spilling only moves bytes.
	SpillBudgetBytes int64
	// SpillDir is the directory spill files are created in ("" selects the
	// OS temp directory). Files are process-private scratch, unlinked at
	// creation where possible.
	SpillDir string
}

// NewStore builds the Store described by opt: a ShardedCollection with
// max(1, Shards) in-process shards, remote-sharded when RemoteWorkers is
// set. Every topology yields bit-identical results for a fixed seed, so the
// choice is purely about memory topology and generation parallelism.
func NewStore(s *Sampler, seed uint64, opt StoreOptions) Store {
	var sc *ShardedCollection
	if len(opt.RemoteWorkers) > 0 {
		sc = NewRemoteShardedCollection(s, seed, opt)
	} else {
		shards := max(opt.Shards, 1)
		w := opt.ShardWorkers
		if w <= 0 {
			total := opt.Workers
			if total <= 0 {
				total = runtime.GOMAXPROCS(0)
			}
			w = max(total/shards, 1)
		}
		sc = NewShardedCollection(s, seed, shards, w)
	}
	if opt.SpillBudgetBytes > 0 {
		sc.spill = newSpillState(opt.SpillBudgetBytes, opt.SpillDir)
		for _, sg := range sc.segs {
			sg.spill = sc.spill
		}
	}
	return sc
}
