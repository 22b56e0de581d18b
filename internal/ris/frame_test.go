package ris

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// TestReadFrameBoundedAllocation pins the frame reader's allocation bound: a
// header claiming a 1 GiB payload followed by EOF must fail having allocated
// only what one read step costs, not the claimed length.
func TestReadFrameBoundedAllocation(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = respData

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 1 GiB frame read without error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("truncated 1 GiB frame allocated %d bytes, want < 4 MiB", alloc)
	}
}

// TestReadFrameSteps round-trips payloads on both sides of the step size,
// and a payload cut short mid-step.
func TestReadFrameSteps(t *testing.T) {
	for _, n := range []int{0, 1, frameStep - 1, frameStep, frameStep + 1, 3*frameStep + 17} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, respData, want); err != nil {
			t.Fatal(err)
		}
		kind, got, err := readFrame(&buf)
		if err != nil || kind != respData || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: kind %d, %d bytes, err %v", n, kind, len(got), err)
		}
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, respData, make([]byte, 2*frameStep)); err != nil {
		t.Fatal(err)
	}
	cut := bytes.NewReader(buf.Bytes()[:buf.Len()-frameStep/2])
	if _, _, err := readFrame(cut); err != io.ErrUnexpectedEOF {
		t.Fatalf("payload cut mid-step: err %v, want io.ErrUnexpectedEOF", err)
	}
}
