package ris

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// persistedMetas returns the meta block payloads Persist writes for a
// one-shard, a three-shard and a remote store, read back from the files.
func persistedMetas(tb testing.TB) [][]byte {
	tb.Helper()
	g, err := gen.ChungLu(120, 700, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		tb.Fatal(err)
	}
	s := mustSampler(tb, g, diffusion.IC)
	srv := NewShardServer(g, ShardServerOptions{})
	tb.Cleanup(func() { srv.Close() })
	dial := func(string) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}
	var out [][]byte
	for _, opt := range []StoreOptions{
		{Workers: 2},
		{Workers: 2, Shards: 3, ShardWorkers: 2},
		{RemoteWorkers: []string{"w0", "w1"}, RemoteDial: dial},
	} {
		st := NewStore(s, 42, opt)
		growPattern(st)
		dir := tb.TempDir()
		info, err := st.(PersistentStore).Persist(dir)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := os.ReadFile(info.Path)
		if err != nil {
			tb.Fatal(err)
		}
		plen := binary.LittleEndian.Uint64(data[8:16])
		out = append(out, data[snapHdrSize:snapHdrSize+plen])
	}
	return out
}

// FuzzDecodeStoreMeta holds decodeStoreMeta to its contract on any meta
// payload — a checksummed block can still be hostile or written by a buggy
// peer: it returns a meta or a *SnapshotCorruptError, and never panics. The
// seeds are real metas from Persist; the checked-in corpus adds remote metas
// whose key lengths overflow a 32-bit int.
func FuzzDecodeStoreMeta(f *testing.F) {
	for _, m := range persistedMetas(f) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		md, err := decodeStoreMeta(payload, "fuzz.rrsnap")
		var ce *SnapshotCorruptError
		switch {
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("error %v (%T), want *SnapshotCorruptError", err, err)
		case err == nil && md == nil:
			t.Fatal("nil meta without an error")
		}
	})
}
