package core

import (
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// Exec is the execution environment a stop-and-stare run works in: where
// the RR sets live, how the stream grows, how max-coverage candidates and
// holdout coverages are computed, and what locking (if any) brackets
// store reads. SSA and D-SSA are written against this interface so the
// same loop serves two callers:
//
//   - the one-shot path (SSA/DSSA): a fresh store and a fresh incremental
//     solver per run, no locking — soloExec below;
//   - the serving path (stopandstare.Session): a long-lived store shared by
//     a query stream, per-k cached solvers, and an RWMutex-or-epoch
//     discipline where read-only queries run concurrently and only store
//     growth takes the write lock.
//
// The algorithms promise to call Ensure with no read lock held, and to
// bracket every store read (Solve, Coverage, Stats reads like Bytes)
// between Acquire and Release. Because every quantity the loops consume is
// derived from the deterministic doubling schedule — never from Store.Len()
// — a run against a pre-grown ("warm") store is bit-identical to a cold
// run at the same seed: the store only ever over-provisions, and RR set i
// is a pure function of (seed, i).
type Exec interface {
	// Store returns the RR-set store the run draws from. Reads of it must
	// be bracketed by Acquire/Release.
	Store() ris.Store
	// Ensure grows the store to at least target RR sets, taking whatever
	// exclusive lock the environment requires, and reports whether it
	// actually generated (false when the store was already large enough —
	// the "warm" case). Must be called with the read lock NOT held.
	Ensure(target int) bool
	// Acquire takes the environment's read lock (no-op for solo runs).
	Acquire()
	// Release drops the read lock.
	Release()
	// Solve returns the max-coverage solution over RR sets [0, upto),
	// exactly maxcover.Greedy(store, upto, k). Called under Acquire.
	Solve(upto, k int) maxcover.Result
	// Coverage counts the RR sets in [from, to) containing at least one
	// seed (Cov over D-SSA's holdout window). Called under Acquire.
	Coverage(seeds []uint32, from, to int) int64
}

// locked runs f between Acquire and Release, releasing on panic as well.
// The Store interface is error-free, so a remote-sharded store escapes
// worker failures as *ris.ShardError panics (recovered by guard); without
// the deferred release such a panic would leak a serving session's read
// lock and deadlock every later query.
func locked(env Exec, f func()) {
	env.Acquire()
	defer env.Release()
	f()
}

// Abort ends the run in progress with err. It is for Exec methods, whose
// signatures carry no error: a canceled Ensure calls it, and SSAWith or
// DSSAWith then returns err. The method must release its own locks first
// (a deferred unlock does).
func Abort(err error) { panic(aborted{err}) }

type aborted struct{ err error }

// guard is deferred by SSAWith and DSSAWith. It turns the two panics that
// cross the error-free Exec and ris.Store surfaces into the run's error:
// an Abort, and the *ris.ShardError a remote-sharded store raises when a
// worker fails. Any other panic is a bug and is raised again.
func guard(res **Result, err *error) {
	switch p := recover().(type) {
	case nil:
	case aborted:
		*res, *err = nil, p.err
	case *ris.ShardError:
		*res, *err = nil, p
	default:
		panic(p)
	}
}

// soloExec is the one-shot environment: a private store and one
// incremental solver, no locking. SSA and DSSA build one per run.
type soloExec struct {
	col ris.Store
	sol *maxcover.Solver
}

func newSoloExec(col ris.Store) *soloExec {
	return &soloExec{col: col, sol: maxcover.NewSolver(col)}
}

func (e *soloExec) Store() ris.Store { return e.col }
func (e *soloExec) Ensure(target int) bool {
	grew := e.col.Len() < target
	e.col.GenerateTo(target)
	return grew
}
func (e *soloExec) Acquire() {}
func (e *soloExec) Release() {}
func (e *soloExec) Solve(upto, k int) maxcover.Result {
	return e.sol.Solve(upto, k)
}
func (e *soloExec) Coverage(seeds []uint32, from, to int) int64 {
	return e.col.CoverageRangeSeeds(seeds, from, to)
}
