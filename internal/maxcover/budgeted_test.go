package maxcover

import (
	"testing"
)

func TestGreedyBudgetedRespectsBudget(t *testing.T) {
	col := buildCollection(t, 40, 250, 600, 21)
	costs := make([]float64, 40)
	for v := range costs {
		costs[v] = float64(v%5) + 1
	}
	for _, budget := range []float64{1, 3, 10, 50} {
		res := GreedyBudgeted(col, col.Len(), costs, budget)
		if res.Cost > budget+1e-9 {
			t.Fatalf("budget %v exceeded: cost %v", budget, res.Cost)
		}
		total := 0.0
		for _, s := range res.Seeds {
			total += costs[s]
		}
		if total != res.Cost {
			t.Fatalf("reported cost %v, actual %v", res.Cost, total)
		}
		if recount := coverageOf(col, res.Seeds, col.Len()); recount != res.Coverage {
			t.Fatalf("coverage %d recount %d", res.Coverage, recount)
		}
	}
}

func TestGreedyBudgetedUnitCostsMatchCardinality(t *testing.T) {
	// With unit costs and budget k, budgeted greedy must cover at least as
	// much as... in fact the ratio greedy with unit costs IS plain greedy,
	// so coverage matches Greedy exactly.
	col := buildCollection(t, 35, 200, 500, 23)
	for _, k := range []int{1, 3, 8} {
		plain := Greedy(col, col.Len(), k)
		budgeted := GreedyBudgeted(col, col.Len(), nil, float64(k))
		if budgeted.Coverage != plain.Coverage {
			t.Fatalf("k=%d: budgeted %d vs plain %d", k, budgeted.Coverage, plain.Coverage)
		}
	}
}

func TestGreedyBudgetedKMNFixup(t *testing.T) {
	// Construct a case where one expensive node dominates: ratio greedy
	// would pick cheap low-coverage nodes; the KMN comparison must rescue
	// the single best node. Build it synthetically via costs.
	col := buildCollection(t, 30, 200, 400, 25)
	// Find the max-coverage node.
	best := uint32(0)
	var bestCov int64
	for v := uint32(0); v < 30; v++ {
		if c := coverageOf(col, []uint32{v}, col.Len()); c > bestCov {
			bestCov, best = c, v
		}
	}
	costs := make([]float64, 30)
	for v := range costs {
		costs[v] = 0.5 // cheap chaff
	}
	costs[best] = 10 // expensive hub
	res := GreedyBudgeted(col, col.Len(), costs, 10)
	// Whatever greedy picked, it must be at least the single-hub coverage.
	if res.Coverage < bestCov {
		t.Fatalf("KMN fix-up failed: coverage %d < best single %d", res.Coverage, bestCov)
	}
}

func TestGreedyBudgetedZeroBudget(t *testing.T) {
	col := buildCollection(t, 20, 100, 100, 27)
	res := GreedyBudgeted(col, col.Len(), nil, 0)
	if len(res.Seeds) != 0 || res.Coverage != 0 || res.Cost != 0 {
		t.Fatalf("zero budget must select nothing: %+v", res)
	}
}

func TestGreedyBudgetedUnaffordable(t *testing.T) {
	col := buildCollection(t, 20, 100, 100, 29)
	costs := make([]float64, 20)
	for v := range costs {
		costs[v] = 100
	}
	res := GreedyBudgeted(col, col.Len(), costs, 1)
	if len(res.Seeds) != 0 {
		t.Fatalf("nothing affordable, got %v", res.Seeds)
	}
}

func TestGreedyBudgetedMonotoneInBudget(t *testing.T) {
	col := buildCollection(t, 40, 250, 500, 31)
	costs := make([]float64, 40)
	for v := range costs {
		costs[v] = float64(v%3) + 1
	}
	prev := int64(-1)
	for _, b := range []float64{1, 2, 4, 8, 16, 32} {
		res := GreedyBudgeted(col, col.Len(), costs, b)
		if res.Coverage < prev {
			t.Fatalf("coverage decreased at budget %v", b)
		}
		prev = res.Coverage
	}
}

func TestGreedyBudgetedInfluenceScale(t *testing.T) {
	r := BudgetedResult{Coverage: 25, Upto: 100}
	if r.Influence(400) != 100 {
		t.Fatalf("influence %v", r.Influence(400))
	}
	if (BudgetedResult{}).Influence(400) != 0 {
		t.Fatal("empty result influence should be 0")
	}
}
