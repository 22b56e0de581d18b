package ris

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// coverageSchedules are the growth schedules the coverage equivalence runs
// over — the same one-shot / doubling / irregular shapes as the arena
// equivalence test, so the CSR layout under test includes merged
// (size-tiered absorbed) and irregular block boundaries.
var coverageSchedules = []struct {
	name     string
	workers  int
	schedule []int
}{
	{"w1-one-shot", 1, []int{2500}},
	{"w2-doubling", 2, []int{100, 200, 400, 800, 1600, 2500}},
	{"w8-irregular", 8, []int{1, 3, 700, 701, 2499, 2500}},
}

// TestCoverageRangeSeedsMatchesArenaScan pins the index-driven coverage
// contract: for every window and seed set, the k-way postings union walk
// returns exactly the arena scan's count, across merged and irregular CSR
// block layouts and both models.
func TestCoverageRangeSeedsMatchesArenaScan(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 83, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	seedSets := [][]uint32{
		nil,
		{0},
		{17},
		{3, 3, 3}, // duplicates must not double-count
		{0, 1, 2, 3, 4},
		{5, 200, 5, 119, 200, 42}, // unsorted with duplicates
		manyNodes(60),
	}
	windows := [][2]int{
		{0, 0}, {0, 1}, {0, 2500}, {1250, 2500}, {699, 702},
		{700, 701}, {2499, 2500}, {100, 1600}, {-5, 99999}, {1800, 1700},
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		for _, sc := range coverageSchedules {
			col := newOneShard(s, 123, sc.workers)
			for _, target := range sc.schedule {
				col.GenerateTo(target)
			}
			mark := make([]bool, n)
			for _, seeds := range seedSets {
				for _, v := range seeds {
					mark[v] = true
				}
				for _, w := range windows {
					want := scanCoverage(col, mark, w[0], w[1])
					got := col.CoverageRangeSeeds(seeds, w[0], w[1])
					if got != want {
						t.Fatalf("%v/%s seeds=%v window=%v: postings %d, arena scan %d",
							model, sc.name, seeds, w, got, want)
					}
				}
				for _, v := range seeds {
					mark[v] = false
				}
			}
		}
	}
}

func manyNodes(k int) []uint32 {
	out := make([]uint32, k)
	for i := range out {
		out[i] = uint32(i * 3)
	}
	return out
}

// TestPostingsRangeMatchesIndexUpto checks the windowed postings iterator
// against the gathered IndexUpto view filtered by hand, for windows that
// fall inside, on, and beyond CSR block boundaries.
func TestPostingsRangeMatchesIndexUpto(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 700, 19, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := newOneShard(s, 7, 3)
	for _, target := range []int{300, 600, 1200} {
		col.GenerateTo(target)
	}
	windows := [][2]int{
		{0, 1200}, {0, 299}, {299, 301}, {300, 600}, {600, 600},
		{599, 601}, {1, 1199}, {750, 5000}, {-3, 450},
	}
	for _, w := range windows {
		for v := uint32(0); int(v) < g.NumNodes(); v += 7 {
			var want []int32
			for _, id := range indexUpto(col, v, col.Len()) {
				if int(id) >= w[0] && int(id) < w[1] {
					want = append(want, id)
				}
			}
			var got []int32
			it := col.PostingsRange(v, w[0], w[1])
			for {
				run, ok := it.Next()
				if !ok {
					break
				}
				if len(run) == 0 {
					t.Fatal("iterator yielded an empty run")
				}
				got = append(got, run...)
			}
			if len(got) != len(want) {
				t.Fatalf("window=%v v=%d: iterator %d ids, filter %d", w, v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window=%v v=%d: posting %d differs", w, v, i)
				}
			}
		}
	}
}

// TestIndexBlockLayoutIdenticalAcrossWorkers pins the parallel CSR build
// contract at the layout level: not just the same postings, but
// bit-identical starts/ids arrays and block boundaries for 1, 2 and 8
// workers, on both a one-shot build (one large parallel block) and a
// doubling schedule (absorbing rebuilds).
func TestIndexBlockLayoutIdenticalAcrossWorkers(t *testing.T) {
	g, err := gen.ChungLu(400, 2400, 2.1, 51, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	schedules := [][]int{
		{30000},
		{4000, 8000, 16000, 30000},
	}
	for si, schedule := range schedules {
		ref := newOneShard(s, 99, 1)
		for _, target := range schedule {
			ref.GenerateTo(target)
		}
		// The layout assertion below is only meaningful if the variants
		// take the parallel path; guarantee it via the worker threshold.
		if int(ref.Items()) < 2*indexItemsPerWorker {
			t.Fatalf("schedule %d: stream too small (%d items) to exercise the parallel build", si, ref.Items())
		}
		for _, workers := range []int{2, 8} {
			col := newOneShard(s, 99, workers)
			for _, target := range schedule {
				col.GenerateTo(target)
			}
			if len(col.segs[0].blocks) != len(ref.segs[0].blocks) {
				t.Fatalf("schedule %d w=%d: %d blocks vs %d", si, workers, len(col.segs[0].blocks), len(ref.segs[0].blocks))
			}
			for bi := range ref.segs[0].blocks {
				rb, cb := &ref.segs[0].blocks[bi], &col.segs[0].blocks[bi]
				if rb.from != cb.from || rb.to != cb.to {
					t.Fatalf("schedule %d w=%d block %d: range [%d,%d) vs [%d,%d)",
						si, workers, bi, cb.from, cb.to, rb.from, rb.to)
				}
				if len(rb.starts) != len(cb.starts) || len(rb.ids) != len(cb.ids) {
					t.Fatalf("schedule %d w=%d block %d: array sizes differ", si, workers, bi)
				}
				for i := range rb.starts {
					if rb.starts[i] != cb.starts[i] {
						t.Fatalf("schedule %d w=%d block %d: starts[%d] %d vs %d",
							si, workers, bi, i, cb.starts[i], rb.starts[i])
					}
				}
				for i := range rb.ids {
					if rb.ids[i] != cb.ids[i] {
						t.Fatalf("schedule %d w=%d block %d: ids[%d] %d vs %d",
							si, workers, bi, i, cb.ids[i], rb.ids[i])
					}
				}
			}
		}
	}
}
