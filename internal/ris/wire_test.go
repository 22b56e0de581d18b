package ris

import (
	"bufio"
	"errors"
	"io"
	"testing"

	"stopandstare/internal/graph"
)

// TestDecodeHugeCounts feeds every count-prefixed decoder a count larger
// than its payload: 0xFFFFFFFF and 0x80000001 are negative as 32-bit ints,
// and 0x40000001 wraps 4·n and 8·n to a small number there. Each must
// report errMalformed, never panic or allocate the claimed length. A count
// that fits still decodes.
func TestDecodeHugeCounts(t *testing.T) {
	decoders := map[string]func(r *rbuf){
		"str":  func(r *rbuf) { r.str() },
		"u32s": func(r *rbuf) { r.u32s() },
		"i32s": func(r *rbuf) { r.i32s() },
		"f64s": func(r *rbuf) { r.f64s() },
		"spec": func(r *rbuf) { r.spec() },
	}
	payload := func(name string, n uint32) []byte {
		var w wbuf
		if name == "spec" {
			// n, model, kernel, seed, workers; then the weights count.
			w.u32(4)
			w.u8(0)
			w.u8(0)
			w.u64(7)
			w.u32(0)
		}
		w.u32(n)
		w.b = append(w.b, make([]byte, 16)...)
		return w.b
	}
	for _, n := range []uint32{0xFFFFFFFF, 0x80000001, 0x40000001} {
		for name, dec := range decoders {
			r := rbuf{b: payload(name, n)}
			dec(&r)
			if !errors.Is(r.err, errMalformed) {
				t.Errorf("%s with count %#x: err %v, want errMalformed", name, n, r.err)
			}
		}
	}
	for name, dec := range decoders {
		r := rbuf{b: payload(name, 2)}
		dec(&r)
		if r.err != nil {
			t.Errorf("%s with count 2: %v", name, r.err)
		}
	}
}

// TestShardSpecKernelRejected pins the spec's kernel byte to 0, the compiled
// plan: a shard open naming any other kernel fails with a fatal error and
// registers no shard, and a worker snapshot record naming one is skipped on
// recovery.
func TestShardSpecKernelRejected(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{{U: 1, V: 0, W: 0.5}, {U: 2, V: 1, W: 0.5}, {U: 3, V: 2, W: 0.5}})
	spec := shardSpec{n: uint32(g.NumNodes()), seed: 5}
	dir := t.TempDir()
	srv := NewShardServer(g, ShardServerOptions{StateDir: dir})
	defer srv.Close()
	open := func(key string, sp shardSpec) error {
		var w wbuf
		w.str(key)
		w.u64(1)
		sp.encode(&w)
		return srv.handleOpen(bufio.NewWriter(io.Discard), w.b)
	}

	bad := spec
	bad.kernel = 1
	if s, err := samplerForSpec(srv, bad); s != nil || !errors.Is(err, errSpecKernel) {
		t.Fatalf("samplerForSpec(kernel 1) = %v, %v; want nil, errSpecKernel", s, err)
	}
	var fe *fatalError
	if err := open("bad", bad); !errors.As(err, &fe) {
		t.Fatalf("open with kernel 1: %v, want a fatal error", err)
	}
	if n := srv.NumShards(); n != 0 {
		t.Fatalf("rejected open left %d shards", n)
	}
	if err := open("good", spec); err != nil {
		t.Fatalf("open with kernel 0: %v", err)
	}

	recovered := func() int {
		t.Helper()
		if _, err := srv.Persist(); err != nil {
			t.Fatal(err)
		}
		re := NewShardServer(g, ShardServerOptions{StateDir: dir})
		defer re.Close()
		return re.RecoveredShards()
	}
	if n := recovered(); n != 1 {
		t.Fatalf("kernel 0 record: recovered %d shards, want 1", n)
	}
	srv.shards["good"].spec.kernel = 1
	if n := recovered(); n != 0 {
		t.Fatalf("kernel 1 record: recovered %d shards, want 0", n)
	}
}
