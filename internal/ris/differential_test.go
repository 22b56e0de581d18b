// Package ris_test hosts the differential harness of the Store interface:
// the full algorithms (SSA, D-SSA, the TVM budget sweep) are run on the
// default one-shard store and on multi-shard stores across shard and worker
// counts, and every observable output — Seeds, Coverage, CoverageSamples, and the
// per-checkpoint traces — must be bit-identical. This is what turns the
// "sharding cannot change results" claim from a comment into a tested
// invariant: any drift in shard-boundary bookkeeping, postings dedup, or
// gain accounting shows up as a trace mismatch here.
package ris_test

import (
	"fmt"
	"slices"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// The differential grid: shard counts {2, 3, 7} × per-shard worker counts
// {1, 4}, each against the reference built with Shards = 0 — the default
// topology, one in-process shard (Shards ≤ 1 all select it).
var (
	diffShardCounts  = []int{2, 3, 7}
	diffWorkerCounts = []int{1, 4}
)

// grow appends count RR sets to st.
func grow(st ris.Store, count int) { st.GenerateTo(st.Len() + count) }

func diffGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(220, 1400, 2.1, 99, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertResultsIdentical(t *testing.T, ctx string, ref, got *core.Result, refTrace, gotTrace []core.Checkpoint) {
	t.Helper()
	if !slices.Equal(ref.Seeds, got.Seeds) {
		t.Fatalf("%s: Seeds differ: %v vs %v", ctx, got.Seeds, ref.Seeds)
	}
	if got.Influence != ref.Influence {
		t.Fatalf("%s: Influence %v vs %v", ctx, got.Influence, ref.Influence)
	}
	if got.CoverageSamples != ref.CoverageSamples || got.TotalSamples != ref.TotalSamples {
		t.Fatalf("%s: samples %d/%d vs %d/%d", ctx,
			got.CoverageSamples, got.TotalSamples, ref.CoverageSamples, ref.TotalSamples)
	}
	if got.Iterations != ref.Iterations || got.HitCap != ref.HitCap {
		t.Fatalf("%s: iterations/hitcap %d/%v vs %d/%v", ctx,
			got.Iterations, got.HitCap, ref.Iterations, ref.HitCap)
	}
	if len(gotTrace) != len(refTrace) {
		t.Fatalf("%s: %d checkpoints vs %d", ctx, len(gotTrace), len(refTrace))
	}
	for i := range refTrace {
		if refTrace[i] != gotTrace[i] {
			t.Fatalf("%s: checkpoint %d differs:\n got %+v\nwant %+v", ctx, i, gotTrace[i], refTrace[i])
		}
	}
}

// runCore executes SSA or D-SSA with a trace recorder and the given store
// topology, on a fixed (seed, k, epsilon) workload.
func runCore(t *testing.T, s *ris.Sampler, algo string, shards, workers int) (*core.Result, []core.Checkpoint) {
	t.Helper()
	var trace []core.Checkpoint
	opt := core.Options{
		K: 8, Epsilon: 0.3, Seed: 71, Workers: 2,
		Shards: shards, ShardWorkers: workers,
		Trace: func(cp core.Checkpoint) { trace = append(trace, cp) },
	}
	var res *core.Result
	var err error
	if algo == "ssa" {
		res, err = core.SSA(s, opt)
	} else {
		res, err = core.DSSA(s, opt)
	}
	if err != nil {
		t.Fatalf("%s shards=%d workers=%d: %v", algo, shards, workers, err)
	}
	return res, trace
}

// TestDifferentialSSAFlatVsSharded and its D-SSA sibling run the full
// stop-and-stare loops — doubling schedule, incremental max-coverage,
// index-driven (D-SSA) or stopping-rule (SSA) verification — on every
// store topology of the grid and demand bit-identical traces. The traces
// are compared checkpoint by checkpoint, so a divergence pinpoints the
// first iteration at which a store implementation leaked into results.
func TestDifferentialSSAFlatVsSharded(t *testing.T) {
	differentialCore(t, "ssa")
}

func TestDifferentialDSSAFlatVsSharded(t *testing.T) {
	differentialCore(t, "dssa")
}

// differentialCore runs the grid: no store topology may leak into results.
func differentialCore(t *testing.T, algo string) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refRes, refTrace := runCore(t, s, algo, 0, 0) // one shard, default workers
	// The reference must itself be repeatable.
	res1, trace1 := runCore(t, s, algo, 0, 0)
	assertResultsIdentical(t, algo+"/default-repeat", refRes, res1, refTrace, trace1)
	for _, shards := range diffShardCounts {
		for _, workers := range diffWorkerCounts {
			ctx := fmt.Sprintf("%s/shards=%d/shardWorkers=%d", algo, shards, workers)
			res, trace := runCore(t, s, algo, shards, workers)
			assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
		}
	}
}

// TestDifferentialBudgetedSweepFlatVsSharded runs the cost-aware TVM sweep
// (WRIS sampling + incremental ratio greedy + KMN fix-up) over several
// budgets on one shared store, one shard vs several, asserting identical seeds,
// benefit estimates, costs and sample counts per budget.
func TestDifferentialBudgetedSweepFlatVsSharded(t *testing.T) {
	g := diffGraph(t)
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%9) + 0.25
	}
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64((v*7)%4) + 1
	}
	budgets := []float64{3, 9, 27, 81}
	run := func(shards, workers int) []*tvm.BudgetedResult {
		res, err := tvm.BudgetedSweep(inst, diffusion.LT, budgets, tvm.BudgetedOptions{
			Costs: costs, Epsilon: 0.2, Seed: 13, Workers: 2,
			Samples: 3000, Shards: shards, ShardWorkers: workers,
		})
		if err != nil {
			t.Fatalf("sweep shards=%d workers=%d: %v", shards, workers, err)
		}
		return res
	}
	ref := run(0, 0)
	for _, shards := range diffShardCounts {
		for _, workers := range diffWorkerCounts {
			got := run(shards, workers)
			for i := range ref {
				ctx := fmt.Sprintf("sweep/shards=%d/workers=%d/budget=%v", shards, workers, budgets[i])
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
	}
}

// TestDifferentialSolversOnShardedStore closes the loop below the
// algorithms: the incremental Solver and BudgetedSolver, fed checkpoints on
// a multi-shard store, must match from-scratch solves on a one-shard store
// of the same stream — the maxcover layer's own topology differential.
func TestDifferentialSolversOnShardedStore(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	flat := ris.NewStore(s, 31, ris.StoreOptions{Workers: 2})
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64(v%3) + 1
	}
	for _, shards := range diffShardCounts {
		sharded := ris.NewShardedCollection(s, 31, shards, 2)
		solver := maxcover.NewSolver(sharded)
		budgeted := maxcover.NewBudgetedSolver(sharded, costs)
		for _, upto := range []int{60, 120, 240, 480, 900} {
			flat.GenerateTo(upto)
			sharded.GenerateTo(upto)
			got := solver.Solve(upto, 7)
			want := maxcover.Greedy(flat, upto, 7)
			if !slices.Equal(got.Seeds, want.Seeds) || got.Coverage != want.Coverage {
				t.Fatalf("shards=%d upto=%d: solver %v/%d vs flat %v/%d",
					shards, upto, got.Seeds, got.Coverage, want.Seeds, want.Coverage)
			}
			gotB := budgeted.Solve(upto, 25)
			wantB := maxcover.GreedyBudgeted(flat, upto, costs, 25)
			if !slices.Equal(gotB.Seeds, wantB.Seeds) || gotB.Coverage != wantB.Coverage || gotB.Cost != wantB.Cost {
				t.Fatalf("shards=%d upto=%d: budgeted %v/%d/%v vs flat %v/%d/%v",
					shards, upto, gotB.Seeds, gotB.Coverage, gotB.Cost,
					wantB.Seeds, wantB.Coverage, wantB.Cost)
			}
		}
	}
}
