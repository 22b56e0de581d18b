package ris

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// spilledStore builds a store with a spill tier over the test's temp dir.
func spilledStore(t *testing.T, s *Sampler, seed uint64, shards int, budget int64) Store {
	t.Helper()
	return NewStore(s, seed, StoreOptions{
		Workers: 2, Shards: shards, ShardWorkers: 2,
		SpillBudgetBytes: budget, SpillDir: t.TempDir(),
	})
}

// TestSpillFileRoundTrip pins the block format end to end: payloads of
// irregular sizes (empty, sub-header, multi-page unaligned) come back
// bit-equal through mapPayload, block offsets stay aligned, and kind or id
// mismatches surface as ErrBadSpill.
func TestSpillFileRoundTrip(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()

	big := make([]byte, 3*4096+7)
	for i := range big {
		big[i] = byte(i*31 + 5)
	}
	cases := [][][]byte{
		{{1, 2, 3, 4, 5}},
		{nil, {9}},                   // leading empty part
		{},                           // empty payload
		{big},                        // multi-page, unaligned length
		{{7, 7}, big[:13], nil, {1}}, // many parts concatenated
	}
	for i, parts := range cases {
		id, err := sf.append(spillKindArena, parts...)
		if err != nil {
			t.Fatalf("append case %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("append case %d: id %d", i, id)
		}
		payload, err := sf.mapPayload(id, spillKindArena)
		if err != nil {
			t.Fatalf("map case %d: %v", i, err)
		}
		want := bytes.Join(parts, nil)
		if !bytes.Equal(payload, want) {
			t.Fatalf("case %d: payload %d bytes differs from written %d bytes", i, len(payload), len(want))
		}
	}
	for i, m := range sf.blocks {
		if m.off%sf.align != 0 {
			t.Fatalf("block %d at unaligned offset %d (align %d)", i, m.off, sf.align)
		}
	}
	if _, err := sf.mapPayload(0, spillKindIndex); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("kind mismatch: %v, want ErrBadSpill", err)
	}
	if _, err := sf.mapPayload(len(sf.blocks), spillKindArena); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("out-of-range id: %v, want ErrBadSpill", err)
	}
}

// TestSpillFileCorruption mirrors sasg_errors_test.go for the spill tier: a
// clobbered block header and a truncated file both surface as ErrBadSpill
// from mapPayload, while untouched blocks keep mapping fine.
func TestSpillFileCorruption(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 3; i++ {
		if _, err := sf.append(spillKindIndex, payload); err != nil {
			t.Fatal(err)
		}
	}

	// Clobber block 1's magic.
	if _, err := sf.f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, sf.blocks[1].off); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.mapPayload(1, spillKindIndex); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("corrupt magic: %v, want ErrBadSpill", err)
	}

	// Truncate block 2's payload away (header survives).
	if err := sf.f.Truncate(sf.blocks[2].off + spillHdrSize); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.mapPayload(2, spillKindIndex); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("truncated payload: %v, want ErrBadSpill", err)
	}

	// Block 0 is untouched.
	if got, err := sf.mapPayload(0, spillKindIndex); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact block after corruption elsewhere: %v", err)
	}
}

// storeObservables compares every Store observable of two stores holding
// the same stream: per-set contents, bulk scans, postings and coverage.
func storeObservables(t *testing.T, ctx string, ref, got Store) {
	t.Helper()
	if got.Len() != ref.Len() || got.Items() != ref.Items() || got.Width() != ref.Width() {
		t.Fatalf("%s: len/items/width %d/%d/%d vs %d/%d/%d", ctx,
			got.Len(), got.Items(), got.Width(), ref.Len(), ref.Items(), ref.Width())
	}
	for i := 0; i < ref.Len(); i++ {
		if !slices.Equal(got.Set(i), ref.Set(i)) {
			t.Fatalf("%s: set %d differs", ctx, i)
		}
	}
	sets := 0
	got.ForEachSet(0, got.Len(), func(i int, set []uint32) {
		if !slices.Equal(set, ref.Set(i)) {
			t.Fatalf("%s: ForEachSet %d differs", ctx, i)
		}
		sets++
	})
	if sets != ref.Len() {
		t.Fatalf("%s: ForEachSet visited %d of %d", ctx, sets, ref.Len())
	}
	collect := func(st Store, v uint32, from, upto int) []int32 {
		var ids []int32
		p := st.PostingsRange(v, from, upto)
		for {
			run, ok := p.Next()
			if !ok {
				break
			}
			ids = append(ids, run...)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	n := ref.NumNodes()
	for v := 0; v < n; v++ {
		if !slices.Equal(collect(got, uint32(v), 0, got.Len()), collect(ref, uint32(v), 0, ref.Len())) {
			t.Fatalf("%s: postings for node %d differ", ctx, v)
		}
	}
	var seeds []uint32
	for _, c := range []int{1, n / 3, n - 2} {
		if c >= 0 && c < n && !slices.Contains(seeds, uint32(c)) {
			seeds = append(seeds, uint32(c))
		}
	}
	if len(seeds) == 0 {
		seeds = []uint32{0}
	}
	mark := make([]bool, n)
	for _, s := range seeds {
		mark[s] = true
	}
	for _, r := range [][2]int{{0, ref.Len()}, {ref.Len() / 3, 2 * ref.Len() / 3}, {1, ref.Len() - 1}} {
		if g, w := got.CoverageRangeSeeds(seeds, r[0], r[1]), ref.CoverageRangeSeeds(seeds, r[0], r[1]); g != w {
			t.Fatalf("%s: CoverageRangeSeeds[%d,%d) %d vs %d", ctx, r[0], r[1], g, w)
		}
		if g, w := scanCoverage(got, mark, r[0], r[1]), scanCoverage(ref, mark, r[0], r[1]); g != w {
			t.Fatalf("%s: scanned coverage [%d,%d) %d vs %d", ctx, r[0], r[1], g, w)
		}
	}
}

// TestSpillStoreBitIdentical is the store-level round-trip property test:
// an irregular growth pattern (uneven index blocks), a full mid-life spill,
// growth on top of spilled state, and a second spill must leave every
// observable bit-identical to a never-spilled store of the same stream —
// one shard and several.
func TestSpillStoreBitIdentical(t *testing.T) {
	g, err := gen.ChungLu(300, 2000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	pattern := []int{1, 3, 60, 2, 250, 17, 400, 1, 128}

	for _, shards := range []int{0, 3} {
		ref := NewStore(s, 42, StoreOptions{Workers: 2, Shards: shards, ShardWorkers: 2})
		for _, c := range pattern {
			grow(ref, c)
		}
		grow(ref, 300)

		for _, budget := range []int64{1, ref.Bytes() / 2} {
			st := spilledStore(t, s, 42, shards, budget)
			for _, c := range pattern {
				grow(st, c)
			}
			ss := st.(SpilledStore)
			if err := ss.SpillTo(0); err != nil {
				t.Fatal(err)
			}
			grow(st, 300) // growth over spilled state
			if err := ss.SpillTo(0); err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("shards=%d", shards)
			stats := ss.SpillStats()
			if !stats.Enabled || stats.Blocks == 0 || stats.FileBytes == 0 {
				t.Fatalf("%s/budget=%d: spilling never happened: %+v", ctx, budget, stats)
			}
			if stats.Err != "" {
				t.Fatalf("%s/budget=%d: spill error: %s", ctx, budget, stats.Err)
			}
			storeObservables(t, ctx, ref, st)
		}
	}
}

// TestSpillEdgeCases covers the degenerate shapes: a single-node graph
// (every RR set is the one-element root set) and hand-built segments with
// zero-length sets mixed into a sealed, spilled extent.
func TestSpillEdgeCases(t *testing.T) {
	// n = 1: sets are all {0}.
	g1 := mustGraph(t, 1, nil)
	s1 := mustSampler(t, g1, diffusion.IC)
	ref := newOneShard(s1, 9, 1)
	ref.GenerateTo(50)
	st := spilledStore(t, s1, 9, 0, 1)
	st.GenerateTo(20)
	grow(st, 30)
	if err := st.(SpilledStore).SpillTo(0); err != nil {
		t.Fatal(err)
	}
	storeObservables(t, "n=1", ref, st)

	// Zero-length sets inside a spilled extent: setAt must return empty
	// slices exactly where the offsets say so.
	sg := newSegment(4)
	sp := newSpillState(1, t.TempDir())
	sg.spill = sp
	sg.buf = []uint32{1, 2, 3}
	sg.offsets = []int64{0, 0, 2, 2, 3}
	sg.seal()
	if err := sp.enforce(0, []*segment{sg}); err != nil {
		t.Fatal(err)
	}
	if sg.exts[0].mapped == nil {
		t.Fatal("sealed extent was not spilled")
	}
	want := [][]uint32{{}, {1, 2}, {}, {3}}
	for i, w := range want {
		if got := sg.setAt(i); !slices.Equal(got, w) {
			t.Fatalf("set %d = %v, want %v", i, got, w)
		}
	}
}

// TestSpillDiskFull injects an append failure: the typed *SpillWriteError
// is recorded and sticky, the store stops spilling but stays consistent and
// fully resident, and it keeps growing bit-identically afterwards.
func TestSpillDiskFull(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 500, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	ref := newOneShard(s, 3, 2)
	ref.GenerateTo(400)
	grow(ref, 200)

	c := spilledStore(t, s, 3, 0, 1).(*ShardedCollection)
	diskFull := errors.New("no space left on device")
	c.spill.testWriteAt = func(p []byte, off int64) (int, error) { return 0, diskFull }
	c.GenerateTo(400) // growth crosses the 1-byte budget; the spill attempt fails

	var we *SpillWriteError
	if err := c.spill.err; !errors.As(err, &we) || !errors.Is(err, diskFull) {
		t.Fatalf("recorded error %v, want *SpillWriteError wrapping the injected failure", err)
	}
	stats := c.SpillStats()
	if stats.Err == "" || stats.SpilledBytes != 0 {
		t.Fatalf("after disk-full: %+v, want Err set and nothing spilled", stats)
	}
	if err := c.SpillTo(0); !errors.Is(err, diskFull) {
		t.Fatalf("SpillTo after failure = %v, want the sticky error", err)
	}
	grow(c, 200) // further growth must not retry or corrupt anything
	storeObservables(t, "disk-full", ref, c)
}

// TestSpillAccounting pins the satellite accounting fix: per-unit metadata
// records count toward residentBytes, Bytes() is conserved across a spill
// (the resident drop covers at least the bytes now spilled), and the file
// accounting includes header/padding overhead.
func TestSpillAccounting(t *testing.T) {
	// Metadata inclusion: block and extent records themselves are counted.
	sg := newSegment(0)
	sg.blocks = make([]csrBlock, 100)
	sg.exts = make([]arenaExtent, 10)
	wantMeta := 100*int64(unsafe.Sizeof(csrBlock{})) + 10*int64(unsafe.Sizeof(arenaExtent{}))
	if got := sg.residentBytes(); got < wantMeta {
		t.Fatalf("residentBytes %d misses unit metadata (want >= %d)", got, wantMeta)
	}

	g, err := gen.ChungLu(300, 2000, 2.1, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	c := spilledStore(t, s, 17, 0, 1<<40).(*ShardedCollection) // huge budget: nothing spills on its own
	c.GenerateTo(900)
	before := c.Bytes()
	if err := c.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	after := c.Bytes()
	stats := c.SpillStats()
	if stats.SpilledBytes > 0 && before-after < stats.SpilledBytes {
		t.Fatalf("resident dropped %d for %d spilled bytes: spilled data still double-counted",
			before-after, stats.SpilledBytes)
	}
	if stats.Blocks == 0 || stats.FileBytes < stats.SpilledBytes+int64(stats.Blocks)*spillHdrSize {
		t.Fatalf("file accounting misses header/padding overhead: %+v", stats)
	}
	// The spilled session stats split must agree with the store.
	if spillMappedResident {
		if stats.SpilledBytes != 0 {
			t.Fatalf("fallback platform reported %d spilled bytes", stats.SpilledBytes)
		}
	} else if stats.SpilledBytes == 0 {
		t.Fatal("SpillTo(0) spilled nothing")
	}
}
