package ris

import (
	"math"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// This file is the statistical-equivalence harness of the compiled sampling
// plans: the plan kernels consume different PRNG sequences than the
// Bernoulli oracle (oracle_test.go), so set-by-set comparison is
// meaningless — instead the harness proves the two draw from the same
// DISTRIBUTION:
//
//   - per-edge activation frequencies (chi-square against the exact edge
//     probabilities, for the geometric, threshold and alias kernels);
//   - mean RR-set size and width agreement between kernels on a
//     weighted-cascade graph under both models;
//   - influence estimates against the exact possible-world oracle
//     (internal/diffusion.Exact) under both kernels.
//
// Structural invariants (root membership, reverse-path validity, width
// definition, worker-count determinism) are covered by ris_test.go.

// forcedRootSampler returns a WRIS sampler whose root is always node 0, so
// per-edge frequencies at node 0 can be measured directly.
func forcedRootSampler(t *testing.T, g *graph.Graph, model diffusion.Model) *Sampler {
	t.Helper()
	w := make([]float64, g.NumNodes())
	w[0] = 1
	s, err := NewWeightedSampler(g, model, w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// starGraph builds edges i→0 for i = 1..len(ws) with the given weights, so
// node 0's in-edge list has exactly those activation probabilities.
func starGraph(t *testing.T, ws []float64) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(ws))
	for i, w := range ws {
		edges[i] = graph.Edge{U: uint32(i + 1), V: 0, W: w}
	}
	g, err := graph.FromEdges(len(ws)+1, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanClassification(t *testing.T) {
	// Weighted cascade: every in-edge of v weighs 1/d_in(v) — every node
	// must classify uniform and the plan must carry no threshold records.
	g, err := gen.ChungLu(300, 2000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(g, diffusion.IC)
	for v, c := range p.class {
		if c != classUniform {
			t.Fatalf("WC node %d classified general", v)
		}
	}
	if len(p.gen) != 0 || p.genOff != nil {
		t.Fatal("WC plan allocated threshold records")
	}
	// Mixed weights: node 0 of the star must classify general, its
	// neighbours (in-degree 0) uniform.
	gm := starGraph(t, []float64{0.1, 0.5, 0.9})
	pm := NewPlan(gm, diffusion.IC)
	if pm.class[0] != classGeneral {
		t.Fatal("mixed-weight node classified uniform")
	}
	if got := pm.genOff[1] - pm.genOff[0]; got != 3 {
		t.Fatalf("general node has %d records, want 3", got)
	}
	for _, e := range pm.gen {
		if e.thr == 0 {
			t.Fatal("zero threshold for a positive-probability edge")
		}
	}
}

// activationCounts generates N RR sets from the forced root and counts how
// often each star leaf appears (leaves have no in-edges, so membership is
// exactly "the edge fired" under IC and "the walk stepped there" under LT).
func activationCounts(s *Sampler, n, N int) []int {
	st := s.NewState()
	var r rng.Source
	counts := make([]int, n)
	for i := 0; i < N; i++ {
		r.SeedStream(4242, uint64(i))
		buf, setLen, _ := s.AppendSample(&r, st, nil)
		for _, v := range buf[len(buf)-setLen:] {
			counts[v]++
		}
	}
	return counts
}

// chiSquareEdges returns Σ (c_i − N·p_i)² / (N·p_i·(1−p_i)) — each edge is
// an independent Bernoulli, so the statistic is ~χ² with len(ws) degrees of
// freedom.
func chiSquareEdges(counts []int, ws []float64, N int) float64 {
	var x2 float64
	for i, p := range ws {
		d := float64(counts[i+1]) - float64(N)*p
		x2 += d * d / (float64(N) * p * (1 - p))
	}
	return x2
}

func TestPlanICUniformEdgeFrequencies(t *testing.T) {
	// All weights equal ⇒ node 0 is uniform class ⇒ the geometric-skipping
	// kernel serves it. 16 edges at p = 0.15.
	const d, p, N = 16, 0.15, 300000
	ws := make([]float64, d)
	for i := range ws {
		ws[i] = p
	}
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.IC)
	if s.Plan().class[0] != classUniform {
		t.Fatal("uniform star classified general")
	}
	counts := activationCounts(s, g.NumNodes(), N)
	// χ²(16): 1-1e-6 quantile ≈ 56.
	if x2 := chiSquareEdges(counts, ws, N); x2 > 70 {
		t.Fatalf("geometric kernel chi-square %.1f (counts %v)", x2, counts[1:])
	}
}

func TestPlanICGeneralEdgeFrequencies(t *testing.T) {
	// Distinct weights ⇒ general class ⇒ the fused threshold kernel.
	ws := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.97}
	const N = 300000
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.IC)
	if s.Plan().class[0] != classGeneral {
		t.Fatal("mixed star classified uniform")
	}
	counts := activationCounts(s, g.NumNodes(), N)
	// χ²(8): 1-1e-6 quantile ≈ 43.
	if x2 := chiSquareEdges(counts, ws, N); x2 > 55 {
		t.Fatalf("threshold kernel chi-square %.1f (counts %v)", x2, counts[1:])
	}
}

func TestPlanLTStepFrequencies(t *testing.T) {
	// LT star with Σw = 0.85: the alias walk's first step must pick leaf i
	// with probability w_i and stop (singleton set) with probability 0.15.
	ws := []float64{0.05, 0.1, 0.15, 0.2, 0.35}
	const N = 300000
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.LT)
	counts := activationCounts(s, g.NumNodes(), N)
	// Multinomial chi-square over the d+1 outcomes (leaves + stop).
	stopped := N
	var x2 float64
	for i, p := range ws {
		stopped -= counts[i+1]
		d := float64(counts[i+1]) - float64(N)*p
		x2 += d * d / (float64(N) * p)
	}
	pStop := 0.15
	dd := float64(stopped) - float64(N)*pStop
	x2 += dd * dd / (float64(N) * pStop)
	// χ²(5): 1-1e-6 quantile ≈ 35.
	if x2 > 45 {
		t.Fatalf("alias kernel chi-square %.1f (counts %v, stopped %d)", x2, counts[1:], stopped)
	}
}

// kernelMoments generates N sets through sample and returns the mean and
// variance of the set sizes plus the mean width.
func kernelMoments(s *Sampler, sample sampleFunc, seed uint64, N int) (meanSize, varSize, meanWidth float64) {
	st := s.NewState()
	var r rng.Source
	var buf []uint32
	var sum, sumSq, wsum float64
	for i := 0; i < N; i++ {
		r.SeedStream(seed, uint64(i))
		var setLen int
		var w int64
		buf, setLen, w = sample(&r, st, buf[:0])
		sz := float64(setLen)
		sum += sz
		sumSq += sz * sz
		wsum += float64(w)
	}
	meanSize = sum / float64(N)
	varSize = sumSq/float64(N) - meanSize*meanSize
	meanWidth = wsum / float64(N)
	return
}

func TestPlanVsOracleSizeWidthAgreement(t *testing.T) {
	g, err := gen.ChungLu(2000, 16000, 2.1, 17, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	const N = 60000
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s, err := NewSampler(g, model)
		if err != nil {
			t.Fatal(err)
		}
		pm, pv, pw := kernelMoments(s, s.AppendSample, 1009, N)
		om, ov, ow := kernelMoments(s, s.oracleSample, 2017, N)
		// Two-sample z-test on the means; the shared variance estimate is
		// conservative enough at N = 60k per kernel.
		se := math.Sqrt((pv + ov) / N)
		if d := math.Abs(pm - om); d > 6*se+1e-9 {
			t.Fatalf("%v: mean size plan %.4f vs oracle %.4f (6se=%.4f)", model, pm, om, 6*se)
		}
		// Width is a size-correlated heavy-tail; a relative tolerance keeps
		// the check meaningful without modelling its variance.
		if d := math.Abs(pw - ow); d > 0.05*math.Max(pw, ow)+1 {
			t.Fatalf("%v: mean width plan %.2f vs oracle %.2f", model, pw, ow)
		}
	}
}

// exactCheck estimates I(S) from N RR sets of the named kernel and
// compares against the exact possible-world influence. The plan kernel
// draws through a store, the oracle directly.
func exactCheck(t *testing.T, g *graph.Graph, model diffusion.Model, kernel string, seeds []uint32) {
	t.Helper()
	exact, err := diffusion.Exact(g, model, seeds)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g, model)
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]bool, g.NumNodes())
	for _, v := range seeds {
		mark[v] = true
	}
	const N = 400000
	var cov int64
	if kernel == "plan" {
		col := newOneShard(s, 97, 2)
		col.GenerateTo(N)
		cov = scanCoverage(col, mark, 0, N)
	} else {
		st := s.NewState()
		var r rng.Source
		var buf []uint32
		for i := 0; i < N; i++ {
			r.SeedStream(97, uint64(i))
			buf, _, _ = s.oracleSample(&r, st, buf[:0])
			for _, v := range buf {
				if mark[v] {
					cov++
					break
				}
			}
		}
	}
	est := s.Scale() * float64(cov) / float64(N)
	p := float64(cov) / float64(N)
	se := s.Scale() * math.Sqrt(p*(1-p)/float64(N))
	if math.Abs(est-exact) > 5*se+0.01 {
		t.Fatalf("%v/%s: estimate %.4f vs exact %.4f (se %.4f)", model, kernel, est, exact, se)
	}
}

func TestPlanInfluenceMatchesExactOracle(t *testing.T) {
	gIC := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 0, V: 2, W: 0.3}, {U: 1, V: 3, W: 0.5},
		{U: 2, V: 3, W: 0.7}, {U: 3, V: 4, W: 0.4},
	})
	gLT := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.5}, {U: 2, V: 1, W: 0.3}, {U: 1, V: 3, W: 0.6},
		{U: 0, V: 3, W: 0.2}, {U: 3, V: 4, W: 0.8},
	})
	for _, k := range []string{"plan", "oracle"} {
		exactCheck(t, gIC, diffusion.IC, k, []uint32{0})
		exactCheck(t, gIC, diffusion.IC, k, []uint32{1, 2})
		exactCheck(t, gLT, diffusion.LT, k, []uint32{0})
		exactCheck(t, gLT, diffusion.LT, k, []uint32{0, 2})
	}
}

func TestPlanCertainEdges(t *testing.T) {
	// Weight-1 edges (d_in = 1 under weighted cascade) must ALWAYS fire
	// under both kernels: the chain 3→2→1→0 with w=1 makes every RR set
	// from root 0 the full chain.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 3, V: 2, W: 1}, {U: 2, V: 1, W: 1}, {U: 1, V: 0, W: 1},
	})
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := forcedRootSampler(t, g, model)
		for k, sample := range kernels(s) {
			st := s.NewState()
			var r rng.Source
			for i := 0; i < 2000; i++ {
				r.SeedStream(7, uint64(i))
				buf, setLen, _ := sample(&r, st, nil)
				if setLen != 4 {
					t.Fatalf("%v/%v: certain chain gave set %v", model, k, buf)
				}
			}
		}
	}
}

func TestPlanZeroWeightEdges(t *testing.T) {
	// Weight-0 edges must NEVER fire under either kernel (uniform class
	// with p = 0 exercises the Geometric MaxSkip sentinel).
	g := mustGraph(t, 3, []graph.Edge{{U: 1, V: 0, W: 0}, {U: 2, V: 0, W: 0}})
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := forcedRootSampler(t, g, model)
		for k, sample := range kernels(s) {
			st := s.NewState()
			var r rng.Source
			for i := 0; i < 2000; i++ {
				r.SeedStream(11, uint64(i))
				_, setLen, _ := sample(&r, st, nil)
				if setLen != 1 {
					t.Fatalf("%v/%v: zero-weight edge fired", model, k)
				}
			}
		}
	}
}
