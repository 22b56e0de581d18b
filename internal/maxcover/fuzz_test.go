package maxcover

import (
	"testing"
)

// This file is the fuzz harness for the incremental solvers: tiny random
// collections, randomized checkpoint schedules, and brute-force greedy
// oracles that recompute every marginal gain from the raw sets — no heaps,
// no epochs, no incremental state. Anything the lazy heap or the
// epoch-stamped covered marks get wrong (stale-entry mishandling, a missed
// generation bump, a gain count drifting across checkpoints) surfaces as a
// violated greedy invariant or a coverage recount mismatch. The seed corpus
// under testdata/fuzz is checked in so `go test` replays it on every run;
// `go test -fuzz=Fuzz ./internal/maxcover` explores further.

// checkpointsFrom derives a short non-decreasing checkpoint schedule ending
// at nSets from the fuzz-controlled sched word, mixing +1/+3/doubling-style
// irregular growth.
func checkpointsFrom(sched uint64, nSets int) []int {
	cuts := []int{}
	cur := 0
	for i := 0; i < 3; i++ {
		step := int(sched>>(8*i))%(nSets+1) + 1
		cur += step
		if cur >= nSets {
			break
		}
		cuts = append(cuts, cur)
	}
	return append(cuts, nSets)
}

// bruteGains recomputes, by scanning the raw sets, the marginal gain of
// every node over the uncovered sets in [0, upto).
func bruteGains(col interface {
	Set(int) []uint32
	NumNodes() int
}, covered []bool, upto int) []int64 {
	gains := make([]int64, col.NumNodes())
	for i := 0; i < upto; i++ {
		if covered[i] {
			continue
		}
		for _, v := range col.Set(i) {
			gains[v]++
		}
	}
	return gains
}

func coverSets(col interface{ Set(int) []uint32 }, covered []bool, upto int, seed uint32) {
	for i := 0; i < upto; i++ {
		if covered[i] {
			continue
		}
		for _, v := range col.Set(i) {
			if v == seed {
				covered[i] = true
				break
			}
		}
	}
}

// FuzzSolverAgainstGreedyOracle drives the incremental Solver across a
// randomized checkpoint schedule and checks, at every checkpoint:
//
//  1. bit-identical Seeds/Coverage to a from-scratch Greedy (incremental
//     state cannot drift);
//  2. the greedy invariant against the brute-force oracle: every selected
//     seed's marginal gain equals the maximum marginal gain at its
//     selection point (ties may resolve to any argmax, so the value — not
//     the node — is pinned), and the summed gains equal the reported
//     Coverage;
//  3. the reported Coverage equals an independent recount over the raw
//     sets.
func FuzzSolverAgainstGreedyOracle(f *testing.F) {
	f.Add(uint64(1), uint64(40), uint64(3), uint64(0x010307))
	f.Add(uint64(7), uint64(9), uint64(1), uint64(0x050505))
	f.Add(uint64(23), uint64(77), uint64(5), uint64(0x3f0101))
	f.Add(uint64(99), uint64(1), uint64(9), uint64(0))
	f.Fuzz(func(t *testing.T, seed, nSetsRaw, kRaw, sched uint64) {
		nSets := int(nSetsRaw%96) + 1
		k := int(kRaw%7) + 1
		col := buildCollection(t, 14, 45, 0, seed%4096+1)
		sol := NewSolver(col)
		for _, upto := range checkpointsFrom(sched, nSets) {
			col.GenerateTo(upto)
			got := sol.Solve(upto, k)
			want := Greedy(col, upto, k)
			assertSameResult(t, "fuzz incremental vs fresh", got, want)
			if rec := coverageOf(col, got.Seeds, upto); rec != got.Coverage {
				t.Fatalf("coverage recount %d != reported %d (upto=%d seeds=%v)",
					rec, got.Coverage, upto, got.Seeds)
			}
			covered := make([]bool, upto)
			var total int64
			for _, s := range got.Seeds {
				gains := bruteGains(col, covered, upto)
				var maxGain int64
				for _, gv := range gains {
					if gv > maxGain {
						maxGain = gv
					}
				}
				if gains[s] != maxGain {
					t.Fatalf("greedy invariant violated: seed %d has gain %d, max is %d (upto=%d seeds=%v)",
						s, gains[s], maxGain, upto, got.Seeds)
				}
				total += gains[s]
				coverSets(col, covered, upto, s)
			}
			if total != got.Coverage {
				t.Fatalf("oracle gain sum %d != reported coverage %d", total, got.Coverage)
			}
		}
	})
}

// FuzzBudgetedSolverAgainstRatioOracle is the budgeted analogue: the
// incremental BudgetedSolver must match from-scratch GreedyBudgeted at
// every checkpoint of a randomized schedule and budget sweep, and the
// returned solution must satisfy the brute-force ratio-greedy invariants:
//
//   - multi-seed solutions: each selected node's gain/cost ratio is the
//     maximum over unselected affordable positive-gain nodes at its
//     selection point, the spent cost fits the budget, and the summed
//     gains equal Coverage;
//   - any solution: Coverage ≥ the best single affordable node's gain
//     (the Khuller–Moss–Naor guarantee) and Coverage matches an
//     independent recount.
func FuzzBudgetedSolverAgainstRatioOracle(f *testing.F) {
	f.Add(uint64(1), uint64(40), uint64(6), uint64(0x010307))
	f.Add(uint64(5), uint64(18), uint64(2), uint64(0x070707))
	f.Add(uint64(42), uint64(90), uint64(13), uint64(0x3f0101))
	f.Add(uint64(11), uint64(2), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, seed, nSetsRaw, budgetRaw, sched uint64) {
		nSets := int(nSetsRaw%96) + 1
		budget := float64(budgetRaw%16) + 1
		col := buildCollection(t, 14, 45, 0, seed%4096+3)
		costs := make([]float64, col.NumNodes())
		for v := range costs {
			costs[v] = float64((uint64(v)*2654435761+seed)%4) + 1
		}
		costOf := func(v uint32) float64 { return costs[v] }
		sol := NewBudgetedSolver(col, costs)
		for _, upto := range checkpointsFrom(sched, nSets) {
			col.GenerateTo(upto)
			got := sol.Solve(upto, budget)
			want := GreedyBudgeted(col, upto, costs, budget)
			if got.Coverage != want.Coverage || got.Cost != want.Cost ||
				len(got.Seeds) != len(want.Seeds) {
				t.Fatalf("incremental vs fresh differ: %+v vs %+v", got, want)
			}
			for i := range got.Seeds {
				if got.Seeds[i] != want.Seeds[i] {
					t.Fatalf("incremental vs fresh seed %d: %d vs %d", i, got.Seeds[i], want.Seeds[i])
				}
			}
			if rec := coverageOf(col, got.Seeds, upto); rec != got.Coverage {
				t.Fatalf("coverage recount %d != reported %d", rec, got.Coverage)
			}
			// KMN floor: no single affordable node may beat the solution.
			full := bruteGains(col, make([]bool, upto), upto)
			var bestSingle int64
			for v := range costs {
				if costs[v] <= budget && full[v] > bestSingle {
					bestSingle = full[v]
				}
			}
			if got.Coverage < bestSingle {
				t.Fatalf("KMN violated: coverage %d < best single %d", got.Coverage, bestSingle)
			}
			var spent float64
			for _, s := range got.Seeds {
				spent += costOf(s)
			}
			if spent > budget || spent != got.Cost {
				t.Fatalf("cost accounting: spent %v reported %v budget %v", spent, got.Cost, budget)
			}
			if len(got.Seeds) <= 1 {
				continue // single-seed results may come from the KMN fix-up
			}
			// Ratio-greedy invariant replay.
			covered := make([]bool, upto)
			remaining := budget
			inSeed := make([]bool, col.NumNodes())
			var total int64
			for _, s := range got.Seeds {
				gains := bruteGains(col, covered, upto)
				best := 0.0
				for v := range costs {
					if inSeed[v] || gains[v] <= 0 || costs[v] > remaining {
						continue
					}
					if r := float64(gains[v]) / costs[v]; r > best {
						best = r
					}
				}
				if r := float64(gains[s]) / costOf(s); r != best {
					t.Fatalf("ratio invariant violated: seed %d ratio %v, max %v (seeds=%v)",
						s, r, best, got.Seeds)
				}
				inSeed[s] = true
				remaining -= costOf(s)
				total += gains[s]
				coverSets(col, covered, upto, s)
			}
			if total != got.Coverage {
				t.Fatalf("oracle gain sum %d != reported coverage %d", total, got.Coverage)
			}
		}
	})
}
