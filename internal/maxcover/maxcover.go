// Package maxcover implements the greedy Max-Coverage procedure of the
// paper's Algorithm 2: given a collection of RR sets, pick k nodes
// maximising the number of covered sets. The classic Nemhauser–Wolsey
// result gives Cov(Ŝ_k) ≥ (1−1/e)·max_{|S|=k} Cov(S); the implementation is
// the exact lazy-greedy (Minoux's accelerated greedy — the same trick CELF
// uses), which returns the identical seed set to naive greedy because
// coverage gain is submodular. The incremental Solver amortises the greedy
// bookkeeping across the checkpoints of a doubling schedule; Greedy is its
// from-scratch special case.
package maxcover

import "stopandstare/internal/ris"

// Result is a max-coverage solution over a prefix of an RR collection.
type Result struct {
	Seeds    []uint32
	Coverage int64 // number of RR sets in [0, Upto) covered by Seeds
	Upto     int   // the prefix length the solution was computed over
}

// Influence converts coverage into the paper's estimator
// Î(S) = scale·Cov_R(S)/|R| (scale = n for RIS, Γ for WRIS).
func (r Result) Influence(scale float64) float64 {
	if r.Upto == 0 {
		return 0
	}
	return scale * float64(r.Coverage) / float64(r.Upto)
}

type candidate struct {
	node uint32
	gain int32
}

// above orders the lazy-greedy max-heap on gain (see heap.go).
func (c candidate) above(o candidate) bool { return c.gain > o.gain }

// Greedy solves max-coverage over RR sets [0, upto) of c, returning k seeds.
// If coverage saturates before k distinct useful nodes exist, the seed set
// is padded with the lowest-id unused nodes so callers always receive
// exactly min(k, n) seeds (a size-k seed set is what IM asks for).
//
// Greedy is the from-scratch entry point: it is exactly a fresh Solver
// solved once. Checkpointed algorithms should hold a Solver instead, which
// scans only the stream suffix added since the previous checkpoint.
func Greedy(c ris.Store, upto, k int) Result {
	return NewSolver(c).Solve(upto, k)
}
