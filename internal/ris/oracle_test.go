package ris

import (
	"path/filepath"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// The sampling oracle: the paper's definition of an RR set (Def. 2) read
// literally — one float Bernoulli draw per IC edge examined, one binary
// search over the in-weight prefix sums per LT step. It is the reference
// the compiled plan kernels are validated against (plan_test.go); it draws
// from the same distribution through a different PRNG sequence, so it is
// compared in distribution, never set by set.

// sampleFunc draws one RR set the way Sampler.AppendSample does.
type sampleFunc func(r *rng.Source, st *State, buf []uint32) ([]uint32, int, int64)

// oracleSample is AppendSample drawn through the oracle instead of the
// compiled plan: same root selection, same (buffer, length, width) result.
func (s *Sampler) oracleSample(r *rng.Source, st *State, buf []uint32) ([]uint32, int, int64) {
	var root uint32
	if s.root != nil {
		root = uint32(s.root.Sample(r))
	} else {
		root = uint32(r.Intn(s.g.NumNodes()))
	}
	st.marks.Reset(st.n)
	start := len(buf)
	st.marks.Visit(int32(root))
	buf = append(buf, root)
	buf, width := s.appendOracle(r, st, buf, start, root)
	return buf, len(buf) - start, width
}

// appendOracle grows the RR set rooted at buf[start] = root.
func (s *Sampler) appendOracle(r *rng.Source, st *State, buf []uint32, start int, root uint32) ([]uint32, int64) {
	g := s.g
	width := int64(g.InDegree(root))
	if s.model == diffusion.IC {
		// Reverse BFS: edge (u,x) is live with probability w(u,x); every
		// in-edge of a member is examined exactly once.
		for head := start; head < len(buf); head++ {
			x := buf[head]
			adj, ws := g.InNeighbors(x)
			for i, u := range adj {
				if st.marks.Contains(int32(u)) {
					continue
				}
				if r.Float64() < float64(ws[i]) {
					st.marks.Visit(int32(u))
					buf = append(buf, u)
					width += int64(g.InDegree(u))
				}
			}
		}
	} else {
		// LT reverse walk: at x pick one in-neighbour proportionally to
		// w(u,x) (stop with probability 1 − Σw); terminate on revisit.
		x := root
		for {
			u, ok := g.SampleLTInNeighbor(x, r.Float64())
			if !ok || !st.marks.Visit(int32(u)) {
				break
			}
			buf = append(buf, u)
			width += int64(g.InDegree(u))
			x = u
		}
	}
	return buf, width
}

// kernels names both samplers of s, for tests that must hold under each.
func kernels(s *Sampler) map[string]sampleFunc {
	return map[string]sampleFunc{"plan": s.AppendSample, "oracle": s.oracleSample}
}

// TestOracleHeapVsMapped draws the same oracle streams from a heap graph and
// its .sasg mapping and demands identical sets and widths. The oracle's LT
// binary search is the only sampling path that reads the mapped inCum
// prefix sums, and its IC walk reads the raw in-weights, so this pins the
// sections the plan-kernel differentials never touch.
func TestOracleHeapVsMapped(t *testing.T) {
	heap, err := gen.ChungLu(220, 1400, 2.1, 99, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "twin.sasg")
	if err := heap.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	weights := make([]float64, heap.NumNodes())
	for v := range weights {
		weights[v] = float64(v%9) + 0.25
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, weighted := range []bool{false, true} {
			sampler := func(g *graph.Graph) *Sampler {
				if weighted {
					s, err := NewWeightedSampler(g, model, weights)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				return mustSampler(t, g, model)
			}
			hs, ms := sampler(heap), sampler(mapped)
			hst, mst := hs.NewState(), ms.NewState()
			var hr, mr rng.Source
			for i := 0; i < 3000; i++ {
				hr.SeedStream(13, uint64(i))
				mr.SeedStream(13, uint64(i))
				hset, _, hw := hs.oracleSample(&hr, hst, nil)
				mset, _, mw := ms.oracleSample(&mr, mst, nil)
				if !slices.Equal(hset, mset) || hw != mw {
					t.Fatalf("%v weighted=%v set %d: mapped %v (width %d), heap %v (width %d)",
						model, weighted, i, mset, mw, hset, hw)
				}
			}
		}
	}
}
