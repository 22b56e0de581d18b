package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// crashFS is the fault-injecting SnapshotFS: it performs real filesystem
// operations while tracking, per file, how many bytes are durable (synced),
// and can inject a failed write, a torn write, a silent bit flip, dropped
// fsyncs or a dropped rename. Crash() then simulates the machine dying by
// truncating every file to its durable prefix. Renaming an unsynced file
// flushes it first (the replace-via-rename heuristic of real filesystems).
type crashFS struct {
	failAt   int // 1-based global write index to fail outright
	tornAt   int // 1-based write index to half-write then fail
	flipAt   int // 1-based write index to corrupt silently
	dropSync bool
	dropRen  bool
	writes   int
	files    []*crashFile
}

type crashFile struct {
	fs      *crashFS
	f       *os.File
	path    string
	written int64
	synced  int64
}

func (fs *crashFS) Create(name string) (SnapshotFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{fs: fs, f: f, path: name}
	fs.files = append(fs.files, cf)
	return cf, nil
}

func (cf *crashFile) Write(p []byte) (int, error) {
	fs := cf.fs
	fs.writes++
	switch fs.writes {
	case fs.failAt:
		return 0, errors.New("injected write failure")
	case fs.tornAt:
		n, _ := cf.f.Write(p[:len(p)/2])
		cf.written += int64(n)
		return n, errors.New("injected torn write")
	case fs.flipAt:
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x20
		n, err := cf.f.Write(q)
		cf.written += int64(n)
		return n, err
	}
	n, err := cf.f.Write(p)
	cf.written += int64(n)
	return n, err
}

func (cf *crashFile) Sync() error {
	if cf.fs.dropSync {
		return nil
	}
	if err := cf.f.Sync(); err != nil {
		return err
	}
	cf.synced = cf.written
	return nil
}

func (cf *crashFile) Close() error { return cf.f.Close() }

func (fs *crashFS) Rename(oldname, newname string) error {
	if fs.dropRen {
		return errors.New("injected rename failure")
	}
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	for _, cf := range fs.files {
		if cf.path == oldname {
			cf.path = newname
			cf.synced = cf.written
		}
	}
	return nil
}

func (fs *crashFS) Remove(name string) error { return os.Remove(name) }
func (fs *crashFS) SyncDir(string) error     { return nil }

// Crash simulates the process and machine dying: every byte past a file's
// durable prefix is lost.
func (fs *crashFS) Crash() {
	for _, cf := range fs.files {
		os.Truncate(cf.path, cf.synced)
	}
}

func snapTestSampler(t *testing.T) *Sampler {
	t.Helper()
	g, err := gen.ChungLu(120, 700, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return mustSampler(t, g, diffusion.IC)
}

func growPattern(st Store) {
	for _, c := range []int{1, 3, 40, 2, 90, 17} {
		grow(st, c)
	}
}

func snapOpt(shards int) StoreOptions {
	return StoreOptions{Workers: 2, Shards: shards, ShardWorkers: 2}
}

// snapBlockPos locates every block of a committed snapshot file by walking
// the headers — the external-corruption tests patch payload bytes in place.
type snapBlockPos struct {
	off, plen int64
	kind      byte
}

func snapBlockTable(t *testing.T, path string) []snapBlockPos {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []snapBlockPos
	off := int64(0)
	for off+snapHdrSize <= int64(len(data)) {
		hdr := data[off:]
		if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
			t.Fatalf("bad magic at offset %d", off)
		}
		plen := int64(binary.LittleEndian.Uint64(hdr[8:]))
		out = append(out, snapBlockPos{off: off, plen: plen, kind: hdr[4]})
		off = snapAdvance(off, plen)
	}
	return out
}

func flipFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTrip is the recovery-exactness leg: persist an
// irregularly grown (and partially spilled) store, recover it, and require
// every observable bit-identical to the uninterrupted twin — then grow both
// and require identity to hold across post-recovery growth and a second
// persist/recover generation.
func TestSnapshotRoundTrip(t *testing.T) {
	s := snapTestSampler(t)
	for _, shards := range []int{0, 3} {
		ctx := map[int]string{0: "one-shard", 3: "sharded"}[shards]
		dir := t.TempDir()
		opt := snapOpt(shards)

		ref := NewStore(s, 42, opt)
		growPattern(ref)
		st := NewStore(s, 42, opt)
		growPattern(st)

		info, err := st.(PersistentStore).Persist(dir)
		if err != nil {
			t.Fatalf("%s: persist: %v", ctx, err)
		}
		if info.Sets != st.Len() || info.Bytes <= 0 || info.Generation != 1 {
			t.Fatalf("%s: info %+v for %d sets", ctx, info, st.Len())
		}

		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", ctx, err)
		}
		if rinfo.Discarded != 0 || rinfo.Sets != ref.Len() || rinfo.RebuiltIndexBlocks != 0 {
			t.Fatalf("%s: recovery info %+v, want clean %d sets", ctx, rinfo, ref.Len())
		}
		storeObservables(t, ctx+"/recovered", ref, rec)

		// Growth on top of recovered state stays bit-identical.
		grow(ref, 60)
		grow(rec, 60)
		storeObservables(t, ctx+"/regrown", ref, rec)

		// Second generation: persist the recovered store, recover again.
		info2, err := rec.(PersistentStore).Persist(dir)
		if err != nil {
			t.Fatalf("%s: re-persist: %v", ctx, err)
		}
		if info2.Generation != 2 {
			t.Fatalf("%s: generation %d, want 2", ctx, info2.Generation)
		}
		rec2, _, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: re-recover: %v", ctx, err)
		}
		storeObservables(t, ctx+"/gen2", ref, rec2)

		// The superseded generation was swept.
		ents, _ := os.ReadDir(dir)
		snaps := 0
		for _, e := range ents {
			if filepath.Ext(e.Name()) == snapSuffix {
				snaps++
			}
		}
		if snaps != 1 {
			t.Fatalf("%s: %d snapshot files after re-persist, want 1", ctx, snaps)
		}
	}
}

// TestSnapshotSpilledRoundTrip persists a store whose extents and index
// blocks live on the spill file and recovers it without a spill tier: the
// snapshot is self-contained regardless of where payloads were resident.
func TestSnapshotSpilledRoundTrip(t *testing.T) {
	s := snapTestSampler(t)
	ref := NewStore(s, 7, snapOpt(0))
	growPattern(ref)

	st := spilledStore(t, s, 7, 0, 1)
	growPattern(st)
	if err := st.(SpilledStore).SpillTo(0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := st.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, rinfo, err := Recover(s, 7, snapOpt(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Discarded != 0 {
		t.Fatalf("recovery info %+v, want clean", rinfo)
	}
	storeObservables(t, "spilled", ref, rec)

	// And the inverse: recover INTO a spill-enabled store and keep growing.
	recSp, _, err := Recover(s, 7, StoreOptions{
		Workers: 2, SpillBudgetBytes: 1, SpillDir: t.TempDir(),
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	grow(ref, 80)
	grow(recSp, 80)
	storeObservables(t, "spilled-recover-spill", ref, recSp)
}

// TestSnapshotEmptyStore pins the degenerate shape: persisting an empty
// store round-trips, and the recovered store grows bit-identically.
func TestSnapshotEmptyStore(t *testing.T) {
	s := snapTestSampler(t)
	dir := t.TempDir()
	st := NewStore(s, 9, snapOpt(0))
	if _, err := st.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, rinfo, err := Recover(s, 9, snapOpt(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 || rinfo.Sets != 0 {
		t.Fatalf("recovered %d sets from empty snapshot", rec.Len())
	}
	ref := NewStore(s, 9, snapOpt(0))
	ref.GenerateTo(50)
	grow(rec, 50)
	storeObservables(t, "empty", ref, rec)
}

// TestSnapshotMismatch covers the refuse-to-recover paths: no snapshot,
// wrong seed, wrong topology, wrong model — all typed, nothing torn.
func TestSnapshotMismatch(t *testing.T) {
	s := snapTestSampler(t)
	if _, _, err := Recover(s, 42, snapOpt(0), t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}

	dir := t.TempDir()
	st := NewStore(s, 42, snapOpt(0))
	st.GenerateTo(40)
	if _, err := st.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	var mm *SnapshotMismatchError
	if _, _, err := Recover(s, 43, snapOpt(0), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong seed: %v, want SnapshotMismatchError", err)
	}
	if _, _, err := Recover(s, 42, snapOpt(2), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong topology: %v, want SnapshotMismatchError", err)
	}
	lt := mustSampler(t, s.Graph(), diffusion.LT)
	if _, _, err := Recover(lt, 42, snapOpt(0), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong model: %v, want SnapshotMismatchError", err)
	}

	// A mangled manifest is corrupt, not torn.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *SnapshotCorruptError
	if _, _, err := Recover(s, 42, snapOpt(0), dir); !errors.As(err, &ce) {
		t.Fatalf("mangled manifest: %v, want SnapshotCorruptError", err)
	}
}

// TestSnapshotCorruptBlock is the graceful-degradation leg: flip a payload
// byte in an arena block of a committed snapshot and recovery must discard
// exactly the unrecoverable suffix and resample it deterministically —
// observables end up bit-identical to the twin. A corrupt CSR index block
// alone loses nothing (rebuilt from the arena), and a corrupt offsets table
// discards the whole segment's stream suffix.
func TestSnapshotCorruptBlock(t *testing.T) {
	s := snapTestSampler(t)
	for _, shards := range []int{0, 3} {
		ctx := map[int]string{0: "one-shard", 3: "sharded"}[shards]
		opt := snapOpt(shards)
		ref := NewStore(s, 11, opt)
		growPattern(ref)

		persist := func() (string, string) {
			t.Helper()
			st := NewStore(s, 11, opt)
			// Spill mid-life so the snapshot holds several arena blocks per
			// segment and a corrupt one leaves a nonempty good prefix.
			sp := spilledStore(t, s, 11, shards, 1)
			_ = sp
			stSp := spilledStore(t, s, 11, shards, 1)
			growPattern(stSp)
			_ = st
			dir := t.TempDir()
			info, err := stSp.(PersistentStore).Persist(dir)
			if err != nil {
				t.Fatal(err)
			}
			return dir, info.Path
		}

		// Arena corruption: suffix discard + deterministic resample.
		dir, path := persist()
		var arenas []snapBlockPos
		for _, b := range snapBlockTable(t, path) {
			if b.kind == snapKindArena && b.plen > 0 {
				arenas = append(arenas, b)
			}
		}
		if len(arenas) < 2 {
			t.Fatalf("%s: %d arena blocks, need >= 2", ctx, len(arenas))
		}
		last := arenas[len(arenas)-1]
		flipFileByte(t, path, last.off+snapHdrSize+last.plen/2)
		rec, rinfo, err := Recover(s, 11, opt, dir)
		if err != nil {
			t.Fatalf("%s: recover with corrupt arena: %v", ctx, err)
		}
		if rinfo.Discarded == 0 || rinfo.Discarded >= ref.Len() || rinfo.Resampled != rinfo.Discarded {
			t.Fatalf("%s: recovery info %+v, want partial discard+resample of %d sets", ctx, rinfo, ref.Len())
		}
		storeObservables(t, ctx+"/corrupt-arena", ref, rec)

		// Index corruption: rebuilt from the arena, nothing discarded.
		if shards == 0 { // multi-shard stores also keep indexes, but one leg suffices
			dir, path = persist()
			var idx []snapBlockPos
			for _, b := range snapBlockTable(t, path) {
				if b.kind == snapKindIndex {
					idx = append(idx, b)
				}
			}
			if len(idx) == 0 {
				t.Fatal("no index blocks persisted")
			}
			flipFileByte(t, path, idx[0].off+snapHdrSize+idx[0].plen/2)
			rec, rinfo, err = Recover(s, 11, opt, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rinfo.Discarded != 0 || rinfo.RebuiltIndexBlocks == 0 {
				t.Fatalf("recovery info %+v, want 0 discarded and a rebuilt index", rinfo)
			}
			storeObservables(t, "corrupt-index", ref, rec)

			// Offsets corruption: whole segment gone, fully resampled.
			dir, path = persist()
			blocks := snapBlockTable(t, path)
			for _, b := range blocks {
				if b.kind == snapKindOffsets {
					flipFileByte(t, path, b.off+snapHdrSize+b.plen/2)
					break
				}
			}
			rec, rinfo, err = Recover(s, 11, opt, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rinfo.Discarded != ref.Len() || rec.Len() != ref.Len() {
				t.Fatalf("recovery info %+v, want full discard and resample to %d", rinfo, ref.Len())
			}
			storeObservables(t, "corrupt-offsets", ref, rec)
		}
	}
}

// TestSnapshotLegacyFlat recovers the two snapshot shapes a one-shard store
// could have on disk before the flat store became the one-shard store: the
// flat format (meta shards = 0, no gid block, no epoch table) and a
// one-shard store that kept an identity gid table. Both recover
// bit-identically into the one-shard store, at Shards 0 and 1, keeping no
// gid table and one epoch [0, length); a corrupt arena block in the flat
// format still discards only the stream suffix.
func TestSnapshotLegacyFlat(t *testing.T) {
	s := snapTestSampler(t)
	ref := NewStore(s, 42, snapOpt(0))
	growPattern(ref)

	// persistFlat writes the flat format through the package's own encoder.
	// Spilling everything first gives the segment several arena blocks, so
	// a corrupt one leaves a nonempty good prefix.
	persistFlat := func() (string, string) {
		t.Helper()
		st := spilledStore(t, s, 42, 0, 1).(*ShardedCollection)
		growPattern(st)
		m := storeMetaOf(s, 42)
		m.length = st.Len()
		dir := t.TempDir()
		info, err := persistStore(dir, OSSnapshotFS, m, st.segs)
		if err != nil {
			t.Fatal(err)
		}
		return dir, info.Path
	}
	checkOneShard := func(ctx string, rec Store, epochs int) {
		t.Helper()
		sc := rec.(*ShardedCollection)
		if sc.Shards() != 1 || sc.segs[0].gids != nil || len(sc.epochs) != epochs {
			t.Fatalf("%s: %d shards, gids %v, %d epochs; want 1 shard, no gids, %d epochs",
				ctx, sc.Shards(), sc.segs[0].gids != nil, len(sc.epochs), epochs)
		}
		storeObservables(t, ctx, ref, rec)
	}

	dir, path := persistFlat()
	for _, shards := range []int{0, 1} {
		ctx := fmt.Sprintf("flat-format/shards=%d", shards)
		rec, rinfo, err := Recover(s, 42, snapOpt(shards), dir)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if rinfo.Discarded != 0 || rinfo.Sets != ref.Len() {
			t.Fatalf("%s: recovery info %+v, want clean %d sets", ctx, rinfo, ref.Len())
		}
		if e := rec.(*ShardedCollection).epochs[0]; e.from != 0 || e.to != ref.Len() {
			t.Fatalf("%s: epoch [%d,%d), want [0,%d)", ctx, e.from, e.to, ref.Len())
		}
		checkOneShard(ctx, rec, 1)
		// Growth on top appends epochs to the one-shard store as usual.
		twin := NewStore(s, 42, snapOpt(0))
		growPattern(twin)
		grow(twin, 70)
		grow(rec, 70)
		storeObservables(t, ctx+"/regrown", twin, rec)
	}
	var mm *SnapshotMismatchError
	if _, _, err := Recover(s, 42, snapOpt(3), dir); !errors.As(err, &mm) {
		t.Fatalf("flat format into 3 shards: %v, want SnapshotMismatchError", err)
	}

	// Identity gid table: written by a one-shard store that kept one.
	id := NewStore(s, 42, snapOpt(1)).(*ShardedCollection)
	growPattern(id)
	sg := id.segs[0]
	sg.gids = make([]int32, sg.nsets())
	for i := range sg.gids {
		sg.gids[i] = int32(i)
	}
	gidDir := t.TempDir()
	if _, err := id.Persist(gidDir); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(s, 42, snapOpt(0), gidDir)
	if err != nil {
		t.Fatal(err)
	}
	checkOneShard("identity-gids", rec, len(id.epochs))

	// Corrupt arena block in the flat format: suffix discard + resample.
	arenas := 0
	var last snapBlockPos
	for _, b := range snapBlockTable(t, path) {
		if b.kind == snapKindGids {
			t.Fatal("flat format wrote a gid block")
		}
		if b.kind == snapKindArena && b.plen > 0 {
			arenas++
			last = b
		}
	}
	if arenas < 2 {
		t.Fatalf("%d arena blocks, need >= 2", arenas)
	}
	flipFileByte(t, path, last.off+snapHdrSize+last.plen/2)
	rec, rinfo, err := Recover(s, 42, snapOpt(0), dir)
	if err != nil {
		t.Fatalf("recover with corrupt arena: %v", err)
	}
	if rinfo.Discarded == 0 || rinfo.Discarded >= ref.Len() || rinfo.Resampled != rinfo.Discarded {
		t.Fatalf("recovery info %+v, want partial discard+resample of %d sets", rinfo, ref.Len())
	}
	// The kept prefix is one truncated epoch; the resample appends another.
	checkOneShard("flat-format/corrupt-arena", rec, 2)
}

// TestRecoveredMappingOutlivesStore pins the snapshot mapping's lifetime to
// the units aliasing it, not to the store: a postings iterator taken from a
// recovered store must stay readable after the store itself is unreachable
// and collected (Persist and the read paths hand segments on without the
// store, so a store-owned mapping could be unmapped under them).
func TestRecoveredMappingOutlivesStore(t *testing.T) {
	s := snapTestSampler(t)
	ref := NewStore(s, 42, snapOpt(0))
	growPattern(ref)
	dir := t.TempDir()
	if _, err := ref.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(s, 42, snapOpt(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	const v = 3
	it := rec.PostingsRange(v, 0, rec.Len())
	rec = nil
	for i := 0; i < 4; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let queued finalizers run
	}
	var got []int32
	for {
		run, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, run...)
	}
	if want := indexUpto(ref, v, ref.Len()); !slices.Equal(got, want) {
		t.Fatalf("postings after the store was collected: %v, want %v", got, want)
	}
}

// TestSnapshotCrashFaults enumerates every fault point of the snapshot
// protocol — each individual write failed or torn, the rename dropped, every
// fsync dropped before a crash — and requires recovery to land on exactly
// the previous or the new complete state, never a torn one.
func TestSnapshotCrashFaults(t *testing.T) {
	s := snapTestSampler(t)
	opt := snapOpt(0)

	build := func(extra int) Store {
		st := NewStore(s, 42, opt)
		growPattern(st)
		if extra > 0 {
			grow(st, extra)
		}
		return st
	}
	stateA := build(0)
	lenA := stateA.Len()
	stateB := build(150)
	lenB := stateB.Len()

	// Probe a clean persist of state B to count protocol writes.
	probe := &crashFS{}
	if _, err := stateB.(PersistentStore).PersistFS(t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	writes := probe.writes
	if writes < 6 {
		t.Fatalf("probe counted %d writes", writes)
	}

	check := func(name, dir string, wantLens ...int) {
		t.Helper()
		if _, err := CleanStateDir(dir); err != nil {
			t.Fatal(err)
		}
		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if !slices.Contains(wantLens, rinfo.Sets) {
			t.Fatalf("%s: recovered %d sets (info %+v), want one of %v", name, rinfo.Sets, rinfo, wantLens)
		}
		twin := NewStore(s, 42, opt)
		twin.GenerateTo(rec.Len())
		storeObservables(t, name, twin, rec)
	}

	for k := 1; k <= writes; k++ {
		for _, torn := range []bool{false, true} {
			name := map[bool]string{false: "fail", true: "torn"}[torn]
			dir := t.TempDir()
			if _, err := stateA.(PersistentStore).Persist(dir); err != nil {
				t.Fatal(err)
			}
			fs := &crashFS{}
			if torn {
				fs.tornAt = k
			} else {
				fs.failAt = k
			}
			if _, err := stateB.(PersistentStore).PersistFS(dir, fs); err == nil {
				t.Fatalf("%s@%d: persist succeeded despite injection", name, k)
			}
			fs.Crash()
			// Every write precedes the manifest commit, so the previous
			// state must survive intact.
			check(name+"@write", dir, lenA)
		}
	}

	// Dropped rename: the new snapshot is fully written but never committed.
	dir := t.TempDir()
	if _, err := stateA.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs := &crashFS{dropRen: true}
	if _, err := stateB.(PersistentStore).PersistFS(dir, fs); err == nil {
		t.Fatal("persist succeeded despite dropped rename")
	}
	fs.Crash()
	check("dropped-rename", dir, lenA)

	// Dropped fsyncs with a crash before the rename: nothing new is durable.
	dir = t.TempDir()
	if _, err := stateA.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs = &crashFS{dropSync: true, dropRen: true}
	if _, err := stateB.(PersistentStore).PersistFS(dir, fs); err == nil {
		t.Fatal("persist succeeded despite dropped rename")
	}
	fs.Crash()
	check("dropped-fsync-and-rename", dir, lenA)

	// Dropped fsyncs but the commit "succeeds" before the crash (a lying
	// disk): the manifest survives via replace-via-rename but the snapshot
	// payload is lost, so its blocks fail validation and recovery resamples
	// the discarded suffix — landing on the new state.
	dir = t.TempDir()
	if _, err := stateA.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs = &crashFS{dropSync: true}
	if _, err := stateB.(PersistentStore).PersistFS(dir, fs); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	rec, rinfo, err := Recover(s, 42, opt, dir)
	if err != nil {
		// The snapshot file may be truncated below even its meta block;
		// that is a typed corrupt error and a cold start, never torn state.
		var ce *SnapshotCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("lying-fsync recover: %v", err)
		}
	} else {
		if rinfo.Sets != lenB {
			t.Fatalf("lying-fsync recovered %d sets, want %d (info %+v)", rinfo.Sets, lenB, rinfo)
		}
		storeObservables(t, "lying-fsync", stateB, rec)
	}

	// Silent bit flips on every write of the snapshot payload: recovery must
	// either land on the complete new state (resampling whatever the flip
	// destroyed) or reject the snapshot with a typed corrupt error (flips
	// inside the meta block or manifest); at least one flip must exercise
	// the discard+resample path.
	resampled := 0
	for k := 1; k <= writes; k++ {
		dir := t.TempDir()
		fs := &crashFS{flipAt: k}
		if _, err := stateB.(PersistentStore).PersistFS(dir, fs); err != nil {
			t.Fatalf("flip@%d: persist: %v", k, err)
		}
		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			var ce *SnapshotCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip@%d: %v, want SnapshotCorruptError or success", k, err)
			}
			continue
		}
		if rinfo.Sets != lenB {
			t.Fatalf("flip@%d: recovered %d sets, want %d", k, rinfo.Sets, lenB)
		}
		if rinfo.Discarded > 0 {
			resampled++
		}
		storeObservables(t, "flip", stateB, rec)
	}
	if resampled == 0 {
		t.Fatal("no flip exercised the discard+resample path")
	}
}

// TestCleanStateDir seeds a dirty directory — stale tmp files and an
// unreferenced snapshot next to a committed one — and checks startup cleanup
// removes exactly the leftovers.
func TestCleanStateDir(t *testing.T) {
	s := snapTestSampler(t)
	dir := t.TempDir()
	st := NewStore(s, 42, snapOpt(0))
	st.GenerateTo(30)
	if _, err := st.(PersistentStore).Persist(dir); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"manifest.json.tmp", "snapshot-000099.rrsnap", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := CleanStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if !slices.Equal(removed, []string{"manifest.json.tmp", "snapshot-000099.rrsnap"}) {
		t.Fatalf("removed %v", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("cleanup removed an unrelated file")
	}
	if _, _, err := Recover(s, 42, snapOpt(0), dir); err != nil {
		t.Fatalf("recover after cleanup: %v", err)
	}

	// Cleaning a directory that does not exist is a quiet no-op.
	if removed, err := CleanStateDir(filepath.Join(dir, "missing")); err != nil || removed != nil {
		t.Fatalf("missing dir: %v %v", removed, err)
	}
}

// TestCleanSpillDir seeds leftover spill files (a crash on a platform
// without anonymous unlink) and checks only those are removed.
func TestCleanSpillDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rrspill-123.spill", "rrspill-9.spill", "keep.spill", "rrspill-x.other"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := CleanSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if !slices.Equal(removed, []string{"rrspill-123.spill", "rrspill-9.spill"}) {
		t.Fatalf("removed %v", removed)
	}
}

// TestSpillPayloadBitFlip pins the live spill tier's checksum: a silent
// payload flip — header intact — surfaces as ErrBadSpill at map time.
func TestSpillPayloadBitFlip(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i := 0; i < 2; i++ {
		if _, err := sf.append(spillKindArena, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sf.f.WriteAt([]byte{payload[500] ^ 1}, sf.blocks[0].off+spillHdrSize+500); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.mapPayload(0, spillKindArena); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("flipped payload: %v, want ErrBadSpill", err)
	}
	if got, err := sf.mapPayload(1, spillKindArena); err != nil || !slices.Equal(got, payload) {
		t.Fatalf("intact block: %v", err)
	}
}
