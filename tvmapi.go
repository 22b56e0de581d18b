package stopandstare

import (
	"fmt"
	"time"

	"stopandstare/internal/baselines"
	"stopandstare/internal/gen"
	"stopandstare/internal/tvm"
)

// Topic is a synthetic targeted group with per-user benefit weights,
// mirroring the paper's Table 4 tweet-derived topics.
type Topic = gen.Topic

// GenerateTopics synthesises the paper's two Table 4 topics over g:
// keyword-based targeted groups with Zipf-skewed relevance weights.
func GenerateTopics(g *Graph, seed uint64) ([]*Topic, error) {
	return gen.GenerateDefaultTopics(g, seed)
}

// TVMResult reports a targeted viral marketing run.
type TVMResult struct {
	// Seeds is the selected seed set.
	Seeds []uint32
	// BenefitEstimate estimates B(Ŝ_k) = Σ_v b(v)·Pr[v activated].
	BenefitEstimate float64
	// Gamma is Σ_v b(v), the maximum attainable benefit.
	Gamma float64
	// Samples is the number of weighted RR sets generated.
	Samples int64
	// Elapsed is the algorithm's wall-clock time.
	Elapsed time.Duration
}

// MaximizeTargeted solves the TVM problem: find k seeds maximising the
// total benefit over the targeted group described by weights (b(v) ≥ 0,
// b(v) = 0 outside the group). Supported algorithms: DSSA, SSA (this
// paper), and TIMPlus (= KB-TIM, the prior state of the art).
func MaximizeTargeted(g *Graph, model Model, weights []float64, algo Algorithm, opt Options) (*TVMResult, error) {
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		return nil, err
	}
	opt = opt.fill()
	switch algo {
	case DSSA, SSA:
		// One-shot weighted session: same machinery as the serving path.
		sess, err := NewSession(g, model, SessionOptions{
			Seed: opt.Seed, Workers: opt.Workers,
			Shards: opt.Shards, ShardWorkers: opt.ShardWorkers,
			Weights: weights,
		})
		if err != nil {
			return nil, err
		}
		res, err := sess.Maximize(Query{Algorithm: algo, K: opt.K,
			Epsilon: opt.Epsilon, Delta: opt.Delta})
		if err != nil {
			return nil, err
		}
		return &TVMResult{Seeds: res.Seeds, BenefitEstimate: res.InfluenceEstimate,
			Gamma: inst.Gamma, Samples: res.Samples, Elapsed: res.Elapsed}, nil
	case TIMPlus:
		res, err := tvm.KBTIM(inst, model, baselines.Options{K: opt.K,
			Epsilon: opt.Epsilon, Delta: opt.Delta, Seed: opt.Seed, Workers: opt.Workers,
			Shards: opt.Shards, ShardWorkers: opt.ShardWorkers})
		if err != nil {
			return nil, err
		}
		return &TVMResult{Seeds: res.Seeds, BenefitEstimate: res.Influence,
			Gamma: inst.Gamma, Samples: res.TotalSamples, Elapsed: res.Elapsed}, nil
	default:
		return nil, fmt.Errorf("stopandstare: algorithm %q does not support TVM (use dssa, ssa, or tim+)", algo)
	}
}

// BudgetedOptions configures MaximizeBudgeted (cost-aware TVM — the BCT
// problem of the authors' INFOCOM'16 companion, reference [12] of the
// paper).
type BudgetedOptions struct {
	// Budget is the total allowed spend Σ cost(v).
	Budget float64
	// Costs[v] is the price of seeding v; entries ≤ 0 default to 1.
	Costs []float64
	// Epsilon/Delta/Seed/Workers as in Options.
	Epsilon float64
	Delta   float64
	Seed    uint64
	Workers int
	// Shards/ShardWorkers select the id-sharded RR store, as in Options.
	Shards       int
	ShardWorkers int
}

// BudgetedTVMResult reports a cost-aware targeted run.
type BudgetedTVMResult struct {
	Seeds           []uint32
	BenefitEstimate float64
	// Budget is the spending cap this solution was computed under (one
	// entry of the sweep for MaximizeBudgetedSweep).
	Budget  float64
	Cost    float64
	Samples int64
	Elapsed time.Duration
}

// MaximizeBudgeted solves cost-aware TVM: maximise the targeted benefit
// subject to a seeding budget, using WRIS sampling and the
// Khuller–Moss–Naor ratio greedy ((1−1/√e)-approximate selection over the
// sampled coverage instance).
func MaximizeBudgeted(g *Graph, model Model, weights []float64, opt BudgetedOptions) (*BudgetedTVMResult, error) {
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		return nil, err
	}
	res, err := tvm.BudgetedMaximize(inst, model, tvm.BudgetedOptions{
		Budget: opt.Budget, Costs: opt.Costs, Epsilon: opt.Epsilon,
		Delta: opt.Delta, Seed: opt.Seed, Workers: opt.Workers,
		Shards: opt.Shards, ShardWorkers: opt.ShardWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &BudgetedTVMResult{Seeds: res.Seeds, BenefitEstimate: res.Benefit,
		Budget: res.Budget, Cost: res.Cost, Samples: res.Samples,
		Elapsed: res.Elapsed}, nil
}

// MaximizeBudgetedSweep solves cost-aware TVM for every budget in the list
// against one shared WRIS sample collection: the RR stream is generated and
// scanned once (sized for the largest budget), and each budget is then an
// incremental selection pass — each result is identical to running
// MaximizeBudgeted on that collection, at a fraction of the cost of N
// separate runs. Budgets may be in any order; results come back in input
// order.
func MaximizeBudgetedSweep(g *Graph, model Model, weights []float64, budgets []float64, opt BudgetedOptions) ([]*BudgetedTVMResult, error) {
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		return nil, err
	}
	sweep, err := tvm.BudgetedSweep(inst, model, budgets, tvm.BudgetedOptions{
		Costs: opt.Costs, Epsilon: opt.Epsilon,
		Delta: opt.Delta, Seed: opt.Seed, Workers: opt.Workers,
		Shards: opt.Shards, ShardWorkers: opt.ShardWorkers,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*BudgetedTVMResult, len(sweep))
	for i, res := range sweep {
		out[i] = &BudgetedTVMResult{Seeds: res.Seeds, BenefitEstimate: res.Benefit,
			Budget: res.Budget, Cost: res.Cost, Samples: res.Samples,
			Elapsed: res.Elapsed}
	}
	return out, nil
}

// EvaluateBenefit scores a seed set on the TVM objective by weighted
// forward Monte-Carlo simulation.
func EvaluateBenefit(g *Graph, model Model, weights []float64, seeds []uint32, runs int, seed uint64, workers int) (mean, stderr float64, err error) {
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		return 0, 0, err
	}
	return inst.Benefit(model, seeds, runs, seed, workers)
}
