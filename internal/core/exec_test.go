package core

import (
	"errors"
	"net"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

// TestOneShotDeadWorker runs the one-shot SSA and D-SSA against a remote
// store whose only worker cannot be dialed: the shard failure the store
// raises must come back as the run's error, not escape as a panic.
func TestOneShotDeadWorker(t *testing.T) {
	s := sampler(t, tinyGraph(t), diffusion.IC)
	dial := func(string) (net.Conn, error) { return nil, errors.New("connection refused") }
	for name, run := range map[string]func(*ris.Sampler, Options) (*Result, error){"ssa": SSA, "dssa": DSSA} {
		res, err := run(s, Options{K: 2, Epsilon: 0.3, Seed: 1, Workers: 1,
			RemoteWorkers: []string{"dead:1"}, RemoteDial: dial})
		if res != nil || !errors.Is(err, ris.ErrShardUnreachable) {
			t.Fatalf("%s: (%v, %v), want ErrShardUnreachable", name, res, err)
		}
	}
}
