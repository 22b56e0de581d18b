package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"stopandstare/internal/diffusion"
)

// Worker shard-state snapshots: a ShardServer configured with a StateDir
// persists every resident shard — key, nonce, spec, and the shard's segment
// — using the same block format, checksums, and atomic manifest protocol as
// store snapshots (snapshot.go). A restarted worker recovers its shards from
// the snapshot; a coordinator that re-opens a shard under its persisted
// (key, nonce) then finds the worker's state already grown to the snapshot
// point and replays only the missing suffix, instead of regenerating the
// whole shard. A missing, mismatched, or corrupt worker snapshot is never
// fatal: corrupt suffixes are discarded per shard (deterministic replay
// restores them) and unusable shards are simply dropped.

// encodeWorkerMeta serializes the worker snapshot descriptor: graph size,
// then one (key, nonce, spec, segment descriptor) record per shard.
func encodeWorkerMeta(n int, keys []string, shards []*workerShard) []byte {
	var w wbuf
	w.u32(snapVersion)
	w.u64(uint64(n))
	w.u32(uint32(len(shards)))
	for i, sh := range shards {
		w.str(keys[i])
		w.u64(sh.nonce)
		sh.spec.encode(&w)
		encodeSegMeta(&w, sh.seg)
	}
	return w.b
}

// Persist snapshots every resident shard into the server's state directory.
// It is a no-op (with ErrNoSnapshot) when the server has no StateDir. All
// shard mutexes are taken in sorted key order for the duration — the same
// discipline as enforceSpill — so the snapshot is a consistent cut.
func (s *ShardServer) Persist() (SnapshotInfo, error) {
	if s.stateDir == "" {
		return SnapshotInfo{}, ErrNoSnapshot
	}
	return s.PersistFS(s.stateDir, OSSnapshotFS)
}

// PersistFS is Persist into an explicit directory through an injected
// filesystem (fault tests).
func (s *ShardServer) PersistFS(dir string, fs SnapshotFS) (SnapshotInfo, error) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.shards))
	for k := range s.shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	shards := make([]*workerShard, len(keys))
	for i, k := range keys {
		shards[i] = s.shards[k]
	}
	s.mu.Unlock()

	segs := make([]*segment, len(shards))
	sets := 0
	for i, sh := range shards {
		sh.mu.Lock()
		segs[i] = sh.seg
		sets += sh.seg.nsets()
	}
	meta := encodeWorkerMeta(s.g.NumNodes(), keys, shards)
	info, err := persistSnapshot(dir, fs, snapKindWorker, meta, segs, sets)
	for _, sh := range shards {
		sh.mu.Unlock()
	}
	return info, err
}

// RecoveredShards reports how many shard states the server restored from its
// state directory at construction.
func (s *ShardServer) RecoveredShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// workerShardMeta is one decoded shard record of a worker snapshot.
type workerShardMeta struct {
	key   string
	nonce uint64
	spec  shardSpec
	sm    snapSegMeta
}

// decodeWorkerMeta parses and validates the worker meta block.
func decodeWorkerMeta(payload []byte, path string, n int) ([]workerShardMeta, error) {
	r := rbuf{b: payload}
	if v := r.u32(); v != snapVersion {
		return nil, &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf("worker snapshot version %d", v)}
	}
	if gn := r.u64(); gn != uint64(n) {
		return nil, &SnapshotMismatchError{Reason: fmt.Sprintf("snapshot graph has %d nodes, worker has %d", gn, n)}
	}
	count := int(r.u32())
	if r.err != nil || count < 0 || count > 1<<20 {
		return nil, &SnapshotCorruptError{Path: path, Reason: "bad worker meta header"}
	}
	out := make([]workerShardMeta, 0, count)
	for i := 0; i < count; i++ {
		var wm workerShardMeta
		wm.key = r.str()
		wm.nonce = r.u64()
		wm.spec = r.spec()
		wm.sm = decodeSegMeta(&r)
		if r.err != nil {
			return nil, &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf("truncated worker meta at shard %d", i)}
		}
		if err := validateSegMeta(&wm.sm, n); err != nil {
			return nil, &SnapshotCorruptError{Path: path, Reason: err.Error()}
		}
		if !wm.sm.hasGids {
			return nil, &SnapshotCorruptError{Path: path, Reason: "worker shard without gid table"}
		}
		out = append(out, wm)
	}
	if r.remaining() != 0 {
		return nil, &SnapshotCorruptError{Path: path, Reason: "trailing bytes in worker meta"}
	}
	return out, nil
}

// errSpecKernel rejects a shard spec whose kernel byte is not 0: the
// compiled plan is the only sampler, and a shard must not silently draw a
// different stream than the coordinator asked for.
var errSpecKernel = errors.New("ris: shard spec names a sampling kernel other than the compiled plan")

// samplerForSpec builds the sampler a shard spec describes (the open path
// and the recovery path must agree exactly).
func samplerForSpec(s *ShardServer, spec shardSpec) (*Sampler, error) {
	if spec.kernel != 0 {
		return nil, fmt.Errorf("%w (kernel %d)", errSpecKernel, spec.kernel)
	}
	if len(spec.weights) > 0 {
		return NewWeightedSampler(s.g, diffusion.Model(spec.model), spec.weights)
	}
	return NewSampler(s.g, diffusion.Model(spec.model))
}

// recoverShards restores shard states from the committed snapshot in dir.
// Per shard, a corrupt block discards that shard's local suffix only (the
// coordinator replays the delta); a shard whose sampler cannot be rebuilt is
// skipped. Returns the number of shards restored.
func (s *ShardServer) recoverShards(dir string) (int, error) {
	man, err := loadManifest(dir)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return 0, nil
		}
		return 0, err
	}
	sf, err := openSnapFile(filepath.Join(dir, man.Snapshot))
	if err != nil {
		return 0, err
	}
	hdr := sf.m.data[:snapHdrSize]
	if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic || hdr[4] != snapKindWorker {
		sf.close()
		return 0, &SnapshotCorruptError{Path: sf.path, Reason: "bad worker meta block header"}
	}
	plen := int64(binary.LittleEndian.Uint64(hdr[8:]))
	payload := sf.blockPayload(0, snapKindWorker, plen)
	if payload == nil {
		sf.close()
		return 0, &SnapshotCorruptError{Path: sf.path, Reason: "worker meta block failed validation"}
	}
	metas, err := decodeWorkerMeta(payload, sf.path, s.g.NumNodes())
	if err != nil {
		sf.close()
		return 0, err
	}

	off := snapAdvance(0, plen)
	restored := 0
	for i := range metas {
		wm := &metas[i]
		var r segRestore
		r, off = readSegBlocks(sf, &wm.sm, off)
		if int(wm.spec.n) != s.g.NumNodes() {
			continue
		}
		sampler, err := samplerForSpec(s, wm.spec)
		if err != nil {
			continue
		}
		workers := int(wm.spec.workers)
		if workers <= 0 {
			workers = s.workers
		}
		seg := newSegment(s.g.NumNodes())
		seg.gids = []int32{}
		seg.spill = s.spill
		// The local cutoff is the first unrestorable local set: the worker
		// keeps its good prefix and the coordinator replays the rest.
		restoreSegment(seg, &r, r.badFrom, sf, s.g, true)
		s.mu.Lock()
		s.clock++
		s.shards[wm.key] = &workerShard{
			nonce: wm.nonce, spec: wm.spec, sampler: sampler, workers: workers,
			seg: seg, lastUse: s.clock,
		}
		s.evictLocked(wm.key)
		s.mu.Unlock()
		restored++
	}
	if restored == 0 {
		sf.close()
		return 0, nil
	}
	return restored, nil
}
