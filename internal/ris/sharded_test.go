package ris

import (
	"fmt"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// assertStoresEqual checks the observable Store surface of got against the
// one-shard reference: lengths, aggregates, every Set, per-node postings (as
// id sets — several shards may order runs differently), and both coverage
// paths over a few windows.
func assertStoresEqual(t *testing.T, ctx string, ref *ShardedCollection, got Store) {
	t.Helper()
	if got.Len() != ref.Len() || got.Items() != ref.Items() || got.Width() != ref.Width() {
		t.Fatalf("%s: aggregates differ: len %d/%d items %d/%d width %d/%d", ctx,
			got.Len(), ref.Len(), got.Items(), ref.Items(), got.Width(), ref.Width())
	}
	for i := 0; i < ref.Len(); i++ {
		if !slices.Equal(ref.Set(i), got.Set(i)) {
			t.Fatalf("%s: set %d differs", ctx, i)
		}
	}
	n := ref.NumNodes()
	for v := uint32(0); int(v) < n; v++ {
		want := indexUpto(ref, v, ref.Len())
		have := gatherPostings(got, v, 0, got.Len())
		if !slices.Equal(want, have) {
			t.Fatalf("%s: node %d postings differ: %v vs %v", ctx, v, have, want)
		}
	}
	// Coverage parity on a mark vector and on the index-driven path, over
	// whole-stream and half-window ranges.
	mark := make([]bool, n)
	var seeds []uint32
	for v := 0; v < n; v += 3 {
		mark[v] = true
		seeds = append(seeds, uint32(v))
	}
	half := ref.Len() / 2
	for _, w := range [][2]int{{0, ref.Len()}, {half, ref.Len()}, {half / 2, half}} {
		if a, b := ref.CoverageRange(mark, w[0], w[1]), got.CoverageRange(mark, w[0], w[1]); a != b {
			t.Fatalf("%s: CoverageRange[%d,%d) %d vs %d", ctx, w[0], w[1], b, a)
		}
		if a, b := ref.CoverageRangeSeeds(seeds, w[0], w[1]), got.CoverageRangeSeeds(seeds, w[0], w[1]); a != b {
			t.Fatalf("%s: CoverageRangeSeeds[%d,%d) %d vs %d", ctx, w[0], w[1], b, a)
		}
	}
}

// gatherPostings collects the ids in [from, upto) of sets containing v,
// sorted, verifying each id appears exactly once across runs.
func gatherPostings(st Store, v uint32, from, upto int) []int32 {
	var out []int32
	it := st.PostingsRange(v, from, upto)
	for {
		run, ok := it.Next()
		if !ok {
			break
		}
		prev := int32(-1)
		for _, id := range run {
			if id <= prev {
				panic("postings run not strictly ascending")
			}
			prev = id
		}
		out = append(out, run...)
	}
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			panic("duplicate id across postings runs")
		}
	}
	return out
}

// TestShardedBitIdenticalToFlat pins the topology contract at the store
// level: for any shard count and any per-shard worker count, a multi-shard
// store holds exactly the default one-shard store's sample stream — same
// sets, same postings, same coverage counts — for uniform RIS and WRIS
// samplers and both one-shot and doubling schedules.
func TestShardedBitIdenticalToFlat(t *testing.T) {
	g, err := gen.ChungLu(180, 1100, 2.1, 47, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%7) + 0.5
	}
	samplers := map[string]*Sampler{
		"ris":  mustSampler(t, g, diffusion.IC),
		"wris": mustWeightedSampler(t, g, diffusion.LT, weights),
	}
	schedules := map[string][]int{
		"one-shot": {1500},
		"doubling": {100, 200, 400, 800, 1500},
	}
	for sname, s := range samplers {
		for schedName, schedule := range schedules {
			ref := newOneShard(s, 909, 1)
			for _, target := range schedule {
				ref.GenerateTo(target)
			}
			for _, shards := range []int{2, 3, 7} {
				for _, workers := range []int{1, 4} {
					ctx := fmt.Sprintf("%s/%s/shards=%d/workers=%d", sname, schedName, shards, workers)
					sc := NewShardedCollection(s, 909, shards, workers)
					for _, target := range schedule {
						sc.GenerateTo(target)
					}
					assertStoresEqual(t, ctx, ref, sc)
				}
			}
		}
	}
}

// TestShardedGenerateToRandomizedSchedules mixes irregular growth steps —
// +1, +3, and prefix-doubling, in seeded-random order — to pin
// shard-boundary off-by-ones in the epoch split tables, reusing the WRIS
// irregular schedules of equivalence_test.go as fixed prefixes. Every
// intermediate state is compared against a one-shard store grown in
// lockstep.
func TestShardedGenerateToRandomizedSchedules(t *testing.T) {
	g, err := gen.ChungLu(150, 900, 2.1, 83, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64((v*13)%5) + 1
	}
	s := mustWeightedSampler(t, g, diffusion.IC, weights)
	// The equivalence_test.go WRIS schedules: doubling and irregular.
	fixed := [][]int{
		{100, 200, 400, 800},
		{1, 3, 700, 701, 800},
	}
	for _, shards := range []int{2, 3, 7} {
		for fi, prefix := range fixed {
			ref := newOneShard(s, 4242, 2)
			sc := NewShardedCollection(s, 4242, shards, 2)
			grow := func(target int) {
				ref.GenerateTo(target)
				sc.GenerateTo(target)
			}
			for _, target := range prefix {
				grow(target)
			}
			// Randomized continuation: 30 steps of +1 / +3 / doubling.
			r := rng.NewStream(77, uint64(shards*10+fi))
			for step := 0; step < 30; step++ {
				target := ref.Len()
				switch r.Intn(3) {
				case 0:
					target++
				case 1:
					target += 3
				default:
					target *= 2
				}
				if target > 4000 {
					target = ref.Len() + 1
				}
				grow(target)
				if sc.Len() != ref.Len() {
					t.Fatalf("shards=%d fixed=%d step=%d: len %d vs %d",
						shards, fi, step, sc.Len(), ref.Len())
				}
				// Spot-check the newest sets and a boundary-straddling
				// postings window every step; full check at the end.
				for i := ref.Len() - 1; i >= 0 && i >= ref.Len()-4; i-- {
					if !slices.Equal(ref.Set(i), sc.Set(i)) {
						t.Fatalf("shards=%d fixed=%d step=%d: set %d differs", shards, fi, step, i)
					}
				}
			}
			assertStoresEqual(t, fmt.Sprintf("shards=%d fixed=%d", shards, fi), ref, sc)
		}
	}
}

// TestShardedSetMatchesForEachSet pins the two set-access paths against
// each other across epoch and shard boundaries (locate's binary search and
// shard-formula vs the epoch-walk scan).
func TestShardedSetMatchesForEachSet(t *testing.T) {
	g, err := gen.ErdosRenyi(90, 500, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.LT)
	sc := NewShardedCollection(s, 5, 3, 2)
	for _, target := range []int{1, 2, 5, 50, 1000, 1001} {
		sc.GenerateTo(target)
	}
	seen := 0
	sc.ForEachSet(0, sc.Len(), func(i int, set []uint32) {
		if i != seen {
			t.Fatalf("ForEachSet out of order: got id %d want %d", i, seen)
		}
		seen++
		if !slices.Equal(set, sc.Set(i)) {
			t.Fatalf("set %d: ForEachSet and Set disagree", i)
		}
	})
	if seen != sc.Len() {
		t.Fatalf("ForEachSet visited %d of %d sets", seen, sc.Len())
	}
	// Sub-windows, including empty and clamped ones.
	for _, w := range [][2]int{{17, 23}, {999, 1001}, {0, 1}, {500, 500}, {-5, 2}, {1000, 9999}} {
		lo, hi := w[0], w[1]
		want := 0
		clo, chi := max(lo, 0), min(hi, sc.Len())
		if chi > clo {
			want = chi - clo
		}
		n := 0
		sc.ForEachSet(lo, hi, func(i int, set []uint32) {
			if i < clo || i >= chi {
				t.Fatalf("ForEachSet[%d,%d) yielded out-of-window id %d", lo, hi, i)
			}
			n++
		})
		if n != want {
			t.Fatalf("ForEachSet[%d,%d) visited %d sets, want %d", lo, hi, n, want)
		}
	}
}

func mustWeightedSampler(t testing.TB, g *graph.Graph, model diffusion.Model, weights []float64) *Sampler {
	t.Helper()
	s, err := NewWeightedSampler(g, model, weights)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
