package ris

import (
	"math"
	"testing"
	"testing/quick"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

func mustGraph(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustSampler(t testing.TB, g *graph.Graph, model diffusion.Model) *Sampler {
	t.Helper()
	s, err := NewSampler(g, model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newOneShard returns an empty store in the default topology — one
// in-process shard — with the given generation workers (≤ 0 selects
// GOMAXPROCS).
func newOneShard(s *Sampler, seed uint64, workers int) *ShardedCollection {
	return NewShardedCollection(s, seed, 1, workers)
}

// grow appends count RR sets to st (a no-op for count ≤ 0).
func grow(st Store, count int) { st.GenerateTo(st.Len() + count) }

// scanCoverage counts the RR sets in [from, to) holding a marked node by
// scanning the sets themselves: the arena-scan oracle the index-driven
// CoverageRangeSeeds is checked against.
func scanCoverage(st Store, mark []bool, from, to int) int64 {
	var cov int64
	st.ForEachSet(from, to, func(_ int, set []uint32) {
		for _, v := range set {
			if mark[v] {
				cov++
				break
			}
		}
	})
	return cov
}

// indexUpto returns the ids < upto of RR sets containing v, concatenated
// across st's postings runs in iteration order — globally ascending on a
// one-shard store.
func indexUpto(st Store, v uint32, upto int) []int32 {
	var out []int32
	it := st.PostingsUpto(v, upto)
	for {
		run, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, run...)
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(nil, diffusion.IC); err == nil {
		t.Fatal("nil graph should fail")
	}
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1, W: 0.5}})
	if _, err := NewWeightedSampler(g, diffusion.IC, []float64{1}); err == nil {
		t.Fatal("wrong weights length should fail")
	}
	if _, err := NewWeightedSampler(g, diffusion.IC, []float64{0, 0, 0}); err == nil {
		t.Fatal("zero weights should fail")
	}
}

func TestSamplerScale(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1, W: 0.5}})
	s := mustSampler(t, g, diffusion.IC)
	if s.Scale() != 4 || s.Weighted() {
		t.Fatal("uniform sampler scale should be n")
	}
	ws, err := NewWeightedSampler(g, diffusion.IC, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Scale() != 10 || !ws.Weighted() {
		t.Fatal("weighted sampler scale should be Γ")
	}
}

func TestRRSetContainsRoot(t *testing.T) {
	// The root can always reach itself, so it is always a member — and by
	// construction our sampler emits it first.
	g, err := gen.ChungLu(200, 1000, 2.2, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		st := s.NewState()
		for i := 0; i < 200; i++ {
			r := rng.NewStream(5, uint64(i))
			set, _ := s.Sample(r, st)
			if len(set) < 1 {
				t.Fatalf("%v: empty RR set", model)
			}
		}
	}
}

func TestRRSetStructuralValidityIC(t *testing.T) {
	// IC property: every non-root member u must have at least one out-edge
	// in G to another member (its successor on the reverse-BFS path).
	g, err := gen.ChungLu(150, 900, 2.1, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	st := s.NewState()
	f := func(id uint16) bool {
		r := rng.NewStream(11, uint64(id))
		set, _ := s.Sample(r, st)
		member := map[uint32]bool{}
		for _, v := range set {
			member[v] = true
		}
		for _, u := range set[1:] {
			ok := false
			adj, _ := g.OutNeighbors(u)
			for _, v := range adj {
				if member[v] {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRRSetStructuralValidityLT(t *testing.T) {
	// LT property: the set is a reverse path — consecutive members are
	// connected: set[i+1] -> set[i] must be an edge of G.
	g, err := gen.ChungLu(150, 900, 2.1, 13, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.LT)
	st := s.NewState()
	f := func(id uint16) bool {
		r := rng.NewStream(17, uint64(id))
		set, _ := s.Sample(r, st)
		for i := 0; i+1 < len(set); i++ {
			if !g.HasEdge(set[i+1], set[i]) {
				return false
			}
		}
		// no duplicates
		seen := map[uint32]bool{}
		for _, v := range set {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// lemma1Check validates I(S) = scale·Pr[S ∩ R ≠ ∅] (Lemma 1) against exact
// brute-force influence on a tiny graph.
func lemma1Check(t *testing.T, g *graph.Graph, model diffusion.Model, seeds []uint32) {
	t.Helper()
	exact, err := diffusion.Exact(g, model, seeds)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, model)
	col := newOneShard(s, 23, 2)
	const N = 400000
	col.GenerateTo(N)
	mark := make([]bool, g.NumNodes())
	for _, v := range seeds {
		mark[v] = true
	}
	cov := scanCoverage(col, mark, 0, N)
	est := s.Scale() * float64(cov) / float64(N)
	// Binomial stderr of the coverage estimate.
	p := float64(cov) / float64(N)
	se := s.Scale() * math.Sqrt(p*(1-p)/float64(N))
	if math.Abs(est-exact) > 5*se+0.01 {
		t.Fatalf("%v Lemma 1 violated: RIS est %.4f vs exact %.4f (se %.4f)", model, est, exact, se)
	}
}

func TestLemma1IC(t *testing.T) {
	g := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 0, V: 2, W: 0.3}, {U: 1, V: 3, W: 0.5},
		{U: 2, V: 3, W: 0.7}, {U: 3, V: 4, W: 0.4},
	})
	lemma1Check(t, g, diffusion.IC, []uint32{0})
	lemma1Check(t, g, diffusion.IC, []uint32{1, 2})
}

func TestLemma1LT(t *testing.T) {
	g := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.5}, {U: 2, V: 1, W: 0.3}, {U: 1, V: 3, W: 0.6},
		{U: 0, V: 3, W: 0.2}, {U: 3, V: 4, W: 0.8},
	})
	lemma1Check(t, g, diffusion.LT, []uint32{0})
	lemma1Check(t, g, diffusion.LT, []uint32{0, 2})
}

func TestFigure1Example(t *testing.T) {
	// The paper's Fig. 1: LT graph where node a (0) influences everything;
	// RR sets from any root must therefore contain node 0 frequently, and
	// a must have the highest occurrence count.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 0, V: 1, W: 1},   // a -> b
		{U: 0, V: 2, W: 0.7}, // a -> c
		{U: 2, V: 3, W: 0.3}, // c -> d (fig: 0.3)
		{U: 0, V: 3, W: 0.7}, // a -> d
	})
	s := mustSampler(t, g, diffusion.LT)
	col := newOneShard(s, 29, 1)
	col.GenerateTo(20000)
	counts := make([]int, 4)
	for i := 0; i < col.Len(); i++ {
		for _, v := range col.Set(i) {
			counts[v]++
		}
	}
	for v := 1; v < 4; v++ {
		if counts[0] <= counts[v] {
			t.Fatalf("node a should be the most frequent element (counts %v)", counts)
		}
	}
}

func TestWRISWeightedRootDistribution(t *testing.T) {
	// With no edges, each RR set is exactly {root}; root frequencies must
	// follow the benefit weights.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1, W: 0.0001}})
	w := []float64{1, 0, 3, 6}
	s, err := NewWeightedSampler(g, diffusion.IC, w)
	if err != nil {
		t.Fatal(err)
	}
	col := newOneShard(s, 31, 2)
	const N = 200000
	col.GenerateTo(N)
	counts := make([]int, 4)
	for i := 0; i < N; i++ {
		counts[col.Set(i)[0]]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-weight node used as root")
	}
	for _, v := range []int{0, 2, 3} {
		want := w[v] / 10 * N
		if math.Abs(float64(counts[v])-want) > 6*math.Sqrt(want) {
			t.Fatalf("root %d count %d want ~%.0f", v, counts[v], want)
		}
	}
}

func TestWRISBenefitIdentity(t *testing.T) {
	// Weighted Lemma 1: B(S) = Γ·Pr[S covers weighted RR set], validated
	// against weighted forward MC on a small graph.
	g := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 1, V: 2, W: 0.5}, {U: 0, V: 3, W: 0.4},
		{U: 3, V: 4, W: 0.7},
	})
	w := []float64{0, 2, 1, 0, 5}
	s, err := NewWeightedSampler(g, diffusion.IC, w)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint32{0}
	col := newOneShard(s, 37, 2)
	const N = 300000
	col.GenerateTo(N)
	mark := make([]bool, 5)
	mark[0] = true
	est := s.Scale() * float64(scanCoverage(col, mark, 0, N)) / float64(N)
	mc, se, err := diffusion.Spread(g, diffusion.IC, seeds, diffusion.SpreadOptions{
		Runs: 300000, Seed: 41, Workers: 2, Weights: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-mc) > 5*se+0.02 {
		t.Fatalf("WRIS identity violated: est %.4f vs MC %.4f", est, mc)
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.ChungLu(300, 1500, 2.1, 43, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		c1 := newOneShard(s, 99, 1)
		c4 := newOneShard(s, 99, 4)
		c1.GenerateTo(3000)
		c4.GenerateTo(1000) // grow incrementally too
		c4.GenerateTo(3000)
		if c1.Len() != c4.Len() {
			t.Fatal("length mismatch")
		}
		if c1.Items() != c4.Items() || c1.Width() != c4.Width() {
			t.Fatalf("%v: aggregate mismatch across workers", model)
		}
		for i := 0; i < c1.Len(); i++ {
			a, b := c1.Set(i), c4.Set(i)
			if len(a) != len(b) {
				t.Fatalf("%v: set %d length differs", model, i)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%v: set %d differs", model, i)
				}
			}
		}
	}
}

func TestCollectionIndexConsistency(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 47, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 51, 2)
	col.GenerateTo(2000)
	// index[v] lists exactly the sets containing v, ascending.
	for v := uint32(0); int(v) < g.NumNodes(); v++ {
		idx := indexUpto(col, v, col.Len())
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatal("index not ascending")
			}
		}
		for _, id := range idx {
			found := false
			for _, u := range col.Set(int(id)) {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("index lists a set not containing the node")
			}
		}
	}
	total := 0
	for v := uint32(0); int(v) < g.NumNodes(); v++ {
		total += len(indexUpto(col, v, col.Len()))
	}
	if int64(total) != col.Items() {
		t.Fatalf("index total %d != items %d", total, col.Items())
	}
}

func TestCoverageRangeAgainstNaive(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 500, 53, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.LT)
	col := newOneShard(s, 57, 2)
	col.GenerateTo(1500)
	mark := make([]bool, 80)
	mark[3], mark[17], mark[42] = true, true, true
	for _, rangeCase := range [][2]int{{0, 1500}, {0, 750}, {750, 1500}, {100, 200}, {-5, 9999}} {
		got := col.CoverageRangeSeeds([]uint32{3, 17, 42}, rangeCase[0], rangeCase[1])
		lo, hi := rangeCase[0], rangeCase[1]
		if lo < 0 {
			lo = 0
		}
		if hi > col.Len() {
			hi = col.Len()
		}
		var want int64
		for i := lo; i < hi; i++ {
			for _, v := range col.Set(i) {
				if mark[v] {
					want++
					break
				}
			}
		}
		if got != want {
			t.Fatalf("range %v: got %d want %d", rangeCase, got, want)
		}
	}
}

func TestIndexUpto(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 300, 59, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 61, 1)
	col.GenerateTo(1000)
	for v := uint32(0); v < 50; v += 7 {
		pre := indexUpto(col, v, 400)
		for _, id := range pre {
			if id >= 400 {
				t.Fatal("IndexUpto returned id beyond cutoff")
			}
		}
		full := indexUpto(col, v, col.Len())
		count := 0
		for _, id := range full {
			if id < 400 {
				count++
			}
		}
		if count != len(pre) {
			t.Fatal("IndexUpto dropped ids")
		}
	}
}

func TestWidthMatchesDefinition(t *testing.T) {
	// w(R) = Σ_{v∈R} d_in(v), summed over all sets.
	g, err := gen.ErdosRenyi(60, 400, 67, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 71, 2)
	col.GenerateTo(500)
	var want int64
	for i := 0; i < col.Len(); i++ {
		for _, v := range col.Set(i) {
			want += int64(g.InDegree(v))
		}
	}
	if col.Width() != want {
		t.Fatalf("width %d want %d", col.Width(), want)
	}
}

func TestVerifyStreamDisjoint(t *testing.T) {
	// Verification streams must differ from generation streams for the
	// same ids.
	a := streamFor(5, 7).Uint64()
	b := VerifyStream(5, 7).Uint64()
	if a == b {
		t.Fatal("verify stream collides with generate stream")
	}
}

func TestCollectionBytesGrow(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 300, 73, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 77, 1)
	b0 := col.Bytes()
	col.GenerateTo(1000)
	if col.Bytes() <= b0 {
		t.Fatal("Bytes did not grow with generation")
	}
}

func TestGenerateToIdempotent(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 300, 79, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 83, 1)
	col.GenerateTo(100)
	col.GenerateTo(50) // no-op
	if col.Len() != 100 {
		t.Fatalf("len %d want 100", col.Len())
	}
	col.GenerateTo(0) // no-op
	col.GenerateTo(-5)
	if col.Len() != 100 {
		t.Fatalf("len %d want 100", col.Len())
	}
}

func BenchmarkGenerateIC(b *testing.B) {
	g, err := gen.ChungLu(20000, 100000, 2.1, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	s := mustSampler(b, g, diffusion.IC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := newOneShard(s, uint64(i), 2)
		col.GenerateTo(10000)
	}
}

func BenchmarkGenerateLT(b *testing.B) {
	g, err := gen.ChungLu(20000, 100000, 2.1, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	s := mustSampler(b, g, diffusion.LT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := newOneShard(s, uint64(i), 2)
		col.GenerateTo(10000)
	}
}

func TestEdgelessGraphRRSetsAreSingletons(t *testing.T) {
	// A graph with a single zero-weight edge: RR sets are always just
	// their root under both models.
	g := mustGraph(t, 5, []graph.Edge{{U: 0, V: 1, W: 0}})
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		st := s.NewState()
		for i := 0; i < 200; i++ {
			r := rng.NewStream(307, uint64(i))
			set, width := s.Sample(r, st)
			if len(set) != 1 {
				t.Fatalf("%v: RR set %v on edgeless graph", model, set)
			}
			if width < 0 {
				t.Fatal("negative width")
			}
		}
	}
}
