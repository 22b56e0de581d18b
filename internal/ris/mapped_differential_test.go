package ris_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// The out-of-core differential: a graph opened from its .sasg mapping must
// be indistinguishable from the heap graph it was written from in every
// observable — same seeds, same influence, same traces, for every algorithm
// × store topology of the grid (TestOracleHeapVsMapped does the same for the
// sampling oracle). The RR-set purity
// invariant (set i is a function of (seed, i)) only survives the mmap
// refactor if the mapped sections really are bit-identical aliases; this
// harness is what pins that.

// mappedTwin round-trips g through a .sasg file in a test temp dir and
// opens it mapped. The mapping is released when the test finishes.
func mappedTwin(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("closing mapped twin: %v", err)
		}
	})
	return m
}

// TestDifferentialHeapVsMapped runs SSA and D-SSA on the heap reference
// and on its mapped twin across the flat store and the sharded grid, demanding bit-identical results and traces throughout.
func TestDifferentialHeapVsMapped(t *testing.T) {
	heap := diffGraph(t)
	mapped := mappedTwin(t, heap)
	hs, err := ris.NewSampler(heap, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ris.NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ssa", "dssa"} {
		refRes, refTrace := runCore(t, hs, algo, 0, 0)
		res, trace := runCore(t, ms, algo, 0, 0)
		assertResultsIdentical(t, algo+"/mapped-flat", refRes, res, refTrace, trace)
		for _, shards := range diffShardCounts {
			for _, workers := range diffWorkerCounts {
				ctx := fmt.Sprintf("%s/mapped-shards=%d/workers=%d", algo, shards, workers)
				res, trace := runCore(t, ms, algo, shards, workers)
				assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
			}
		}
	}
}

// TestDifferentialBudgetedSweepHeapVsMapped runs the LT-model TVM budget
// sweep on heap vs mapped. LT sampling compiles the alias tables from
// mapped sections, which the IC harness never touches; the mapped inCum
// prefix sums, which only the oracle's binary-search walk reads, are
// pinned by TestOracleHeapVsMapped.
func TestDifferentialBudgetedSweepHeapVsMapped(t *testing.T) {
	heap := diffGraph(t)
	mapped := mappedTwin(t, heap)
	weights := make([]float64, heap.NumNodes())
	for v := range weights {
		weights[v] = float64(v%9) + 0.25
	}
	costs := make([]float64, heap.NumNodes())
	for v := range costs {
		costs[v] = float64((v*7)%4) + 1
	}
	budgets := []float64{3, 9, 27, 81}
	run := func(g *graph.Graph) []*tvm.BudgetedResult {
		inst, err := tvm.NewInstance(g, weights)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tvm.BudgetedSweep(inst, diffusion.LT, budgets, tvm.BudgetedOptions{
			Costs: costs, Epsilon: 0.2, Seed: 13, Workers: 2,
			Samples: 3000,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res
	}
	ref := run(heap)
	got := run(mapped)
	for i := range ref {
		ctx := fmt.Sprintf("sweep/budget=%v", budgets[i])
		if !slices.Equal(ref[i].Seeds, got[i].Seeds) {
			t.Fatalf("%s: Seeds %v vs %v", ctx, got[i].Seeds, ref[i].Seeds)
		}
		if got[i].Benefit != ref[i].Benefit || got[i].Cost != ref[i].Cost ||
			got[i].Samples != ref[i].Samples {
			t.Fatalf("%s: benefit/cost/samples %v/%v/%d vs %v/%v/%d", ctx,
				got[i].Benefit, got[i].Cost, got[i].Samples,
				ref[i].Benefit, ref[i].Cost, ref[i].Samples)
		}
	}
}
