package ris

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
	"unsafe"
)

// This file is the durable half of the RR-set store: a versioned on-disk
// snapshot format plus the atomic manifest protocol that commits it.
//
// A snapshot is a sequence of 64-byte-aligned blocks, mirroring the spill
// file's layout (and the .sasg convention): each block is a 64-byte header
// (magic, kind, payload length, CRC32C) followed by the payload, padded to
// the next 64-byte boundary. The first block is the store meta — seed,
// model, kernel byte, shard topology, epoch table and per-segment
// descriptors —
// and the rest are the raw offset tables, gid tables, arena extents and CSR
// index blocks, in the order the meta declares them. Payloads are host-order
// images (like the spill file, the snapshot is per-host state, not an
// interchange format), so recovery maps the file read-only and casts the
// arena and index payloads in place: a warm restart costs one sequential
// checksum pass, not a resample.
//
// Commit protocol: write snapshot-<gen>.rrsnap → fsync file → fsync dir →
// write manifest.json.tmp → fsync → rename over manifest.json → fsync dir.
// The manifest is the single commit point, so a crash at any instant leaves
// the directory describing either the previous or the new snapshot, never a
// torn one. Every write-side filesystem call goes through a SnapshotFS so
// tests can fail the Nth write, tear a block, flip bytes, or drop the
// rename and prove that invariant at every step.
//
// Integrity: every block carries a CRC32C over its payload. Recovery
// verifies eagerly (the Store read paths are error-free and concurrent, so
// in-band lazy repair would be unsound); a bad block degrades gracefully —
// the suffix of the stream from the first unrecoverable RR set onward is
// discarded and resampled deterministically from the (seed, i) streams,
// which reproduces it bit-identically.

const (
	// snapMagic is "RRSN" read as a little-endian uint32.
	snapMagic = 0x4E535252
	// snapHdrSize is the per-block header size; payloads start this many
	// bytes past the block's offset, keeping them 64-byte aligned.
	snapHdrSize = 64
	// snapAlign is the block alignment granularity.
	snapAlign = 64
	// snapVersion is the snapshot format version (manifest and meta block).
	snapVersion = 1
)

// Snapshot block kinds (header byte 4).
const (
	snapKindMeta    byte = 10 // store meta (wbuf-encoded)
	snapKindOffsets byte = 11 // segment offset table: []int64 image
	snapKindGids    byte = 12 // segment gid table: []int32 image
	snapKindArena   byte = 13 // arena extent items: []uint32 image
	snapKindIndex   byte = 14 // CSR index block: []int32 starts ++ []int32 ids
	snapKindWorker  byte = 15 // worker-shard meta (imworker state snapshots)
)

const (
	manifestName = "manifest.json"
	snapSuffix   = ".rrsnap"
)

// castagnoli is the CRC32C table shared by snapshot and spill blocks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var snapZeros [snapAlign]byte

func snapAlignUp(v int64) int64 { return (v + snapAlign - 1) &^ (snapAlign - 1) }

// ErrNoSnapshot reports that a state directory holds no committed snapshot
// (no manifest). Callers start cold; this is the expected first-boot path.
var ErrNoSnapshot = errors.New("ris: no snapshot")

// SnapshotMismatchError reports a committed snapshot that describes a
// different store than the one being recovered (other seed, graph, model,
// kernel byte or shard topology). Callers start cold and may keep or replace the snapshot.
type SnapshotMismatchError struct{ Reason string }

func (e *SnapshotMismatchError) Error() string {
	return "ris: snapshot mismatch: " + e.Reason
}

// SnapshotCorruptError reports a snapshot whose manifest or meta block is
// unusable — nothing can be restored from it. Per-payload corruption is NOT
// this error: bad arena or index blocks degrade gracefully into a suffix
// discard plus deterministic resample (see RecoveryInfo.Discarded).
type SnapshotCorruptError struct {
	Path   string
	Reason string
}

func (e *SnapshotCorruptError) Error() string {
	return fmt.Sprintf("ris: corrupt snapshot %s: %s", e.Path, e.Reason)
}

// SnapshotFile is the write handle SnapshotFS hands out. Sync must not
// return until the data is durable.
type SnapshotFile interface {
	io.Writer
	Sync() error
	Close() error
}

// SnapshotFS is the write-side filesystem seam of the snapshot protocol.
// Production uses OSSnapshotFS; crash-consistency tests inject
// implementations that fail the Nth write, tear a write mid-block, flip
// bytes, drop fsyncs or drop the rename, then simulate the crash.
type SnapshotFS interface {
	Create(name string) (SnapshotFile, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// SyncDir makes a directory's entries durable (file creation, rename).
	SyncDir(dir string) error
}

type osSnapshotFS struct{}

func (osSnapshotFS) Create(name string) (SnapshotFile, error) { return os.Create(name) }
func (osSnapshotFS) Rename(oldname, newname string) error     { return os.Rename(oldname, newname) }
func (osSnapshotFS) Remove(name string) error                 { return os.Remove(name) }

func (osSnapshotFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort: some platforms reject it, and the
	// protocol stays crash-consistent without it (only the commit latency
	// window widens).
	d.Sync()
	return d.Close()
}

// OSSnapshotFS is the production SnapshotFS backed by the os package.
var OSSnapshotFS SnapshotFS = osSnapshotFS{}

// SnapshotInfo describes one committed snapshot.
type SnapshotInfo struct {
	Generation uint64
	Path       string
	Bytes      int64
	Sets       int
}

// PersistentStore is the optional Store extension of stores that can write
// crash-safe snapshots of their RR state. ShardedCollection implements it.
// Persist reads the store, so callers must hold the same exclusivity as
// growth (no concurrent mutation; concurrent reads are fine).
type PersistentStore interface {
	Store
	// Persist writes a snapshot of the store into dir and atomically commits
	// it via the manifest. The previous snapshot stays committed until the
	// new one is durable.
	Persist(dir string) (SnapshotInfo, error)
	// PersistFS is Persist through an injected filesystem (fault tests).
	PersistFS(dir string, fs SnapshotFS) (SnapshotInfo, error)
}

// snapManifest is the committed pointer to the current snapshot. It is the
// single atomic commit point of the protocol: written to manifest.json.tmp,
// fsynced, then renamed over manifest.json.
type snapManifest struct {
	Version     int    `json:"version"`
	Generation  uint64 `json:"generation"`
	Snapshot    string `json:"snapshot"`
	Bytes       int64  `json:"bytes"`
	Sets        int    `json:"sets"`
	CreatedUnix int64  `json:"created_unix"`
}

func loadManifest(dir string) (snapManifest, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return snapManifest{}, ErrNoSnapshot
	}
	if err != nil {
		return snapManifest{}, err
	}
	var man snapManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return snapManifest{}, &SnapshotCorruptError{Path: path, Reason: "manifest: " + err.Error()}
	}
	if man.Version != snapVersion || man.Snapshot == "" ||
		man.Snapshot != filepath.Base(man.Snapshot) {
		return snapManifest{}, &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf("manifest version %d, snapshot %q", man.Version, man.Snapshot)}
	}
	return man, nil
}

// ReadSnapshotInfo reports the committed snapshot in dir without opening or
// verifying the snapshot file itself: the manifest's generation, path, size
// and RR-set count. ErrNoSnapshot when dir holds no committed manifest;
// *SnapshotCorruptError when the manifest itself is unreadable. Diagnostics
// (imstats) use this; recovery goes through Recover, which verifies.
func ReadSnapshotInfo(dir string) (SnapshotInfo, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{
		Generation: man.Generation,
		Path:       filepath.Join(dir, man.Snapshot),
		Bytes:      man.Bytes,
		Sets:       man.Sets,
	}, nil
}

// snapWriter appends blocks to a SnapshotFile, tracking offset and the first
// error (after which writes become no-ops, like rbuf's sticky error).
type snapWriter struct {
	f   SnapshotFile
	off int64
	err error
}

func (sw *snapWriter) write(p []byte) {
	if sw.err != nil || len(p) == 0 {
		return
	}
	if _, err := sw.f.Write(p); err != nil {
		sw.err = err
		return
	}
	sw.off += int64(len(p))
}

// block appends one header + payload-parts block, padded to snapAlign, with
// the CRC32C of the concatenated parts in the header.
func (sw *snapWriter) block(kind byte, parts ...[]byte) {
	var plen int64
	var crc uint32
	for _, p := range parts {
		plen += int64(len(p))
		crc = crc32.Update(crc, castagnoli, p)
	}
	var hdr [snapHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	hdr[4] = kind
	binary.LittleEndian.PutUint64(hdr[8:], uint64(plen))
	binary.LittleEndian.PutUint32(hdr[16:], crc)
	sw.write(hdr[:])
	for _, p := range parts {
		sw.write(p)
	}
	if pad := snapAlignUp(plen) - plen; pad > 0 {
		sw.write(snapZeros[:pad])
	}
}

// storeMeta is everything the meta block carries besides the per-segment
// descriptors: the identity a recovery must match and the tables that cannot
// be derived from the segments alone.
type storeMeta struct {
	seed     uint64
	model    uint8
	kernel   uint8 // sampling kernel; 0 (the compiled plan) is the only one
	weighted bool
	whash    uint64
	scale    float64
	n        int
	length   int
	shards   int // 0 = legacy flat store: one segment, no gids, no epochs
	remote   bool
	keys     []string // remote only: per-shard worker keys
	nonces   []uint64 // remote only: per-shard open nonces
	epochs   []genEpoch
}

// weightsHash fingerprints a WRIS weight vector so recovery can reject a
// snapshot taken under different benefits.
func weightsHash(ws []float64) uint64 {
	if len(ws) == 0 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return h.Sum64()
}

func storeMetaOf(s *Sampler, seed uint64) storeMeta {
	return storeMeta{
		seed:     seed,
		model:    uint8(s.model),
		weighted: s.root != nil,
		whash:    weightsHash(s.weights),
		scale:    s.scale,
		n:        s.g.NumNodes(),
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// persistExt is one arena range scheduled for persistence: the frozen
// extents in order, then the active tail as a final virtual extent. Together
// they tile the segment's sets [0, nsets).
type persistExt struct {
	setFrom, setTo int
	items          int64
	data           []uint32
}

func persistExtents(sg *segment) []persistExt {
	out := make([]persistExt, 0, len(sg.exts)+1)
	for i := range sg.exts {
		e := &sg.exts[i]
		out = append(out, persistExt{
			setFrom: e.setFrom, setTo: e.setTo,
			items: e.end - e.base, data: e.data[:e.end-e.base],
		})
	}
	if ns := sg.nsets(); ns > sg.tailSet {
		items := sg.offsets[ns] - sg.tailBase
		out = append(out, persistExt{
			setFrom: sg.tailSet, setTo: ns,
			items: items, data: sg.buf[:items],
		})
	}
	return out
}

// encodeSegMeta appends one segment's descriptor: set count, width, whether
// a gid table follows, the arena extents and the CSR index blocks. Block
// payload lengths are all derivable from this, so recovery can locate every
// block in the file without trusting any payload.
func encodeSegMeta(w *wbuf, sg *segment) {
	ns := sg.nsets()
	w.u64(uint64(ns))
	w.i64(sg.width)
	w.u8(b2u(sg.gids != nil))
	exts := persistExtents(sg)
	w.u32(uint32(len(exts)))
	for _, x := range exts {
		w.u64(uint64(x.setFrom))
		w.u64(uint64(x.setTo))
		w.i64(x.items)
	}
	w.u32(uint32(len(sg.blocks)))
	for i := range sg.blocks {
		b := &sg.blocks[i]
		w.u64(uint64(b.lfrom))
		w.u64(uint64(b.lto))
		w.u64(uint64(len(b.starts)))
		w.u64(uint64(len(b.ids)))
	}
}

// writeSegBlocks appends one segment's data blocks in the order its
// descriptor declares: offsets, gids (segments that keep a table), arena
// extents, CSR index blocks.
func writeSegBlocks(sw *snapWriter, sg *segment) {
	ns := sg.nsets()
	sw.block(snapKindOffsets, i64SnapBytes(sg.offsets[:ns+1]))
	if sg.gids != nil {
		sw.block(snapKindGids, i32SpillBytes(sg.gids[:ns]))
	}
	for _, x := range persistExtents(sg) {
		sw.block(snapKindArena, u32SpillBytes(x.data))
	}
	for i := range sg.blocks {
		b := &sg.blocks[i]
		sw.block(snapKindIndex, i32SpillBytes(b.starts), i32SpillBytes(b.ids))
	}
}

func encodeStoreMeta(m storeMeta, segs []*segment) []byte {
	var w wbuf
	w.u32(snapVersion)
	w.u64(m.seed)
	w.u8(m.model)
	w.u8(m.kernel)
	w.u8(b2u(m.weighted))
	w.u64(m.whash)
	w.f64(m.scale)
	w.u64(uint64(m.n))
	w.u64(uint64(m.length))
	w.u32(uint32(m.shards))
	w.u8(b2u(m.remote))
	if m.remote {
		for i := range m.keys {
			w.str(m.keys[i])
			w.u64(m.nonces[i])
		}
	}
	w.u32(uint32(len(m.epochs)))
	for i := range m.epochs {
		e := &m.epochs[i]
		w.u64(uint64(e.from))
		w.u64(uint64(e.to))
		for _, b := range e.bounds {
			w.u64(uint64(b))
		}
		for _, b := range e.base {
			w.u64(uint64(b))
		}
	}
	w.u32(uint32(len(segs)))
	for _, sg := range segs {
		encodeSegMeta(&w, sg)
	}
	return w.b
}

// Persist writes a snapshot of the store into dir and commits it.
// For a remote-sharded store the mirrors and the per-shard keys and nonces
// are persisted: a recovered coordinator re-opens each worker shard under
// its old identity, so a worker that kept (or itself recovered) that state
// resyncs by delta replay instead of a full wipe.
func (sc *ShardedCollection) Persist(dir string) (SnapshotInfo, error) {
	return sc.PersistFS(dir, OSSnapshotFS)
}

// PersistFS is Persist through an injected filesystem (fault tests).
func (sc *ShardedCollection) PersistFS(dir string, fs SnapshotFS) (SnapshotInfo, error) {
	m := storeMetaOf(sc.sampler, sc.seed)
	m.length = sc.length
	m.shards = len(sc.segs)
	m.epochs = sc.epochs
	if sc.remotes != nil {
		m.remote = true
		for _, rs := range sc.remotes {
			rs.mu.Lock()
			m.keys = append(m.keys, rs.key)
			m.nonces = append(m.nonces, rs.nonce)
			rs.mu.Unlock()
		}
	}
	return persistStore(dir, fs, m, sc.segs)
}

// persistStore runs the full snapshot protocol: write every block, fsync the
// file, fsync the directory, then commit by atomic manifest replace. On any
// error the previous manifest — and therefore the previous snapshot — stays
// committed; partial files are swept by the next successful Persist or by
// CleanStateDir.
func persistStore(dir string, fs SnapshotFS, m storeMeta, segs []*segment) (SnapshotInfo, error) {
	return persistSnapshot(dir, fs, snapKindMeta, encodeStoreMeta(m, segs), segs, m.length)
}

// persistSnapshot is the protocol core shared by store snapshots (meta kind
// snapKindMeta) and worker shard-state snapshots (snapKindWorker): the meta
// block, then every segment's data blocks, fsync, atomic manifest commit.
func persistSnapshot(dir string, fs SnapshotFS, metaKind byte, meta []byte, segs []*segment, sets int) (SnapshotInfo, error) {
	if fs == nil {
		fs = OSSnapshotFS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot dir: %w", err)
	}
	gen := uint64(1)
	if man, err := loadManifest(dir); err == nil {
		gen = man.Generation + 1
	}
	name := fmt.Sprintf("snapshot-%06d%s", gen, snapSuffix)
	path := filepath.Join(dir, name)
	f, err := fs.Create(path)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot create %s: %w", path, err)
	}
	sw := &snapWriter{f: f}
	sw.block(metaKind, meta)
	for _, sg := range segs {
		writeSegBlocks(sw, sg)
	}
	if sw.err == nil {
		sw.err = f.Sync()
	}
	if cerr := f.Close(); sw.err == nil {
		sw.err = cerr
	}
	if sw.err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot write %s: %w", path, sw.err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot sync %s: %w", dir, err)
	}
	man := snapManifest{
		Version: snapVersion, Generation: gen, Snapshot: name,
		Bytes: sw.off, Sets: sets, CreatedUnix: time.Now().Unix(),
	}
	if err := commitManifest(dir, fs, man); err != nil {
		return SnapshotInfo{}, err
	}
	sweepStale(dir, fs, name)
	return SnapshotInfo{Generation: gen, Path: path, Bytes: sw.off, Sets: sets}, nil
}

// commitManifest atomically replaces the committed manifest: write tmp,
// fsync, rename over the real name, fsync the directory. A crash before the
// rename leaves the old manifest; after it, the new one. Never a torn state.
func commitManifest(dir string, fs SnapshotFS, man snapManifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("ris: manifest create: %w", err)
	}
	werr := func() error {
		if _, err := f.Write(append(data, '\n')); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("ris: manifest write: %w", werr)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("ris: manifest commit: %w", err)
	}
	return fs.SyncDir(dir)
}

// sweepStale removes superseded snapshot files and stale manifest temp files
// after a successful commit. Best effort: a recovered store may still be
// mapping an older snapshot (unlink-while-mapped is fine on unix; elsewhere
// the remove fails and the next sweep retries).
func sweepStale(dir string, fs SnapshotFS, keep string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == keep || ent.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, snapSuffix)) {
			fs.Remove(filepath.Join(dir, name))
		}
	}
}

// CleanStateDir removes crash leftovers from a snapshot state directory:
// *.tmp files from an interrupted manifest commit and snapshot files not
// referenced by the committed manifest. Run at startup, before Recover.
// Returns the removed file names.
func CleanStateDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	keep := ""
	if man, err := loadManifest(dir); err == nil {
		keep = man.Snapshot
	}
	var removed []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || name == keep || name == manifestName {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, snapSuffix)) {
			if os.Remove(filepath.Join(dir, name)) == nil {
				removed = append(removed, name)
			}
		}
	}
	return removed, nil
}

// CleanSpillDir removes leftover spill files from a spill directory. Live
// spill files are unlinked at creation wherever the OS allows it, so
// anything still visible is a leftover from a crash on a platform without
// anonymous unlink. Returns the removed file names.
func CleanSpillDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "rrspill-") || !strings.HasSuffix(name, ".spill") {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed = append(removed, name)
		}
	}
	return removed, nil
}

// Raw host-order image of the offset table (see the spill cast helpers —
// same per-host-scratch argument).

func i64SnapBytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func castSnapI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}
