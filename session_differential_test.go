package stopandstare_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stopandstare"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

// This file is the serving-layer differential harness: a warm Session —
// whose store, solvers and plan persist across a randomized stream of
// queries — must return results bit-identical to cold Maximize runs at the
// same seed, for every store topology and sampling kernel. Since RR set i
// is a pure function of (seed, i) and the stop-and-stare loops consume only
// schedule-derived sizes, warm reuse is not an approximation; this harness
// is what turns that claim into a tested invariant. MemoryBytes and Elapsed
// are exempt (a warm store is legitimately larger/faster).

type sessionQuery struct {
	algo stopandstare.Algorithm
	k    int
	eps  float64
}

// randomQuerySequence draws a deterministic mixed workload: repeated
// queries, k refinements, ε tightenings, and algorithm switches.
func randomQuerySequence(seed int64, n int) []sessionQuery {
	r := rand.New(rand.NewSource(seed))
	algos := []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.SSA}
	epss := []float64{0.4, 0.3, 0.25}
	qs := make([]sessionQuery, n)
	for i := range qs {
		qs[i] = sessionQuery{
			algo: algos[r.Intn(len(algos))],
			k:    2 + r.Intn(9),
			eps:  epss[r.Intn(len(epss))],
		}
		if i > 0 && r.Intn(3) == 0 {
			qs[i] = qs[i-1] // force exact repeats into the stream
		}
	}
	return qs
}

func assertSameResult(t *testing.T, ctx string, warm, cold *stopandstare.Result,
	warmTrace, coldTrace []stopandstare.Checkpoint) {
	t.Helper()
	if !slices.Equal(warm.Seeds, cold.Seeds) {
		t.Fatalf("%s: Seeds %v vs cold %v", ctx, warm.Seeds, cold.Seeds)
	}
	if warm.InfluenceEstimate != cold.InfluenceEstimate {
		t.Fatalf("%s: Influence %v vs cold %v", ctx, warm.InfluenceEstimate, cold.InfluenceEstimate)
	}
	if warm.Samples != cold.Samples || warm.Iterations != cold.Iterations || warm.HitCap != cold.HitCap {
		t.Fatalf("%s: samples/iter/hitcap %d/%d/%v vs cold %d/%d/%v", ctx,
			warm.Samples, warm.Iterations, warm.HitCap,
			cold.Samples, cold.Iterations, cold.HitCap)
	}
	if cold.Warm {
		t.Fatalf("%s: one-shot Maximize reported Warm", ctx)
	}
	if len(warmTrace) != len(coldTrace) {
		t.Fatalf("%s: %d checkpoints vs cold %d", ctx, len(warmTrace), len(coldTrace))
	}
	for i := range coldTrace {
		if warmTrace[i] != coldTrace[i] {
			t.Fatalf("%s: checkpoint %d differs:\nwarm %+v\ncold %+v", ctx, i, warmTrace[i], coldTrace[i])
		}
	}
}

// TestSessionDifferentialWarmVsCold runs randomized query sequences on warm
// sessions across flat/sharded stores, comparing every query
// against a cold Maximize run with identical parameters — and pins the
// first cold result against the solo core path, so session execution, the
// one-shot wrapper, and the underlying algorithms cannot drift apart.
func TestSessionDifferentialWarmVsCold(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 71
	for _, shards := range []int{0, 3} {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: seed, Workers: 2, Shards: shards, ShardWorkers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range randomQuerySequence(int64(shards)*31+5, 8) {
			ctx := fmt.Sprintf("shards=%d/q%d(%s,k=%d,eps=%v)",
				shards, qi, q.algo, q.k, q.eps)
			var warmTrace []stopandstare.Checkpoint
			warm, err := sess.Maximize(stopandstare.Query{
				Algorithm: q.algo, K: q.k, Epsilon: q.eps,
				OnCheckpoint: func(cp stopandstare.Checkpoint) { warmTrace = append(warmTrace, cp) },
			})
			if err != nil {
				t.Fatalf("%s: warm: %v", ctx, err)
			}
			var coldTrace []stopandstare.Checkpoint
			cold, err := stopandstare.Maximize(g, stopandstare.IC, q.algo, stopandstare.Options{
				K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2,
				Shards: shards, ShardWorkers: 2,
				OnCheckpoint: func(cp stopandstare.Checkpoint) { coldTrace = append(coldTrace, cp) },
			})
			if err != nil {
				t.Fatalf("%s: cold: %v", ctx, err)
			}
			assertSameResult(t, ctx, warm, cold, warmTrace, coldTrace)

			if qi == 0 {
				// Pin the session/wrapper path against the solo core
				// entry points the internal differential harness uses.
				s, err := ris.NewSampler(g, diffusion.IC)
				if err != nil {
					t.Fatal(err)
				}
				copt := core.Options{K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2,
					Shards: shards, ShardWorkers: 2}
				var solo *core.Result
				if q.algo == stopandstare.DSSA {
					solo, err = core.DSSA(s, copt)
				} else {
					solo, err = core.SSA(s, copt)
				}
				if err != nil {
					t.Fatalf("%s: solo: %v", ctx, err)
				}
				if !slices.Equal(solo.Seeds, cold.Seeds) || solo.TotalSamples != cold.Samples {
					t.Fatalf("%s: solo core drifted from session path: %v/%d vs %v/%d",
						ctx, solo.Seeds, solo.TotalSamples, cold.Seeds, cold.Samples)
				}
			}
		}
	}
}

// TestSessionDifferentialWeighted runs the same warm-vs-cold check for a
// weighted (TVM) session against MaximizeTargeted.
func TestSessionDifferentialWeighted(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%7) + 0.5
	}
	const seed = 13
	sess, err := stopandstare.NewSession(g, stopandstare.LT, stopandstare.SessionOptions{
		Seed: seed, Workers: 2, Weights: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Gamma() <= 0 {
		t.Fatal("weighted session must report Gamma > 0")
	}
	for qi, q := range randomQuerySequence(7, 6) {
		ctx := fmt.Sprintf("weighted/q%d(%s,k=%d,eps=%v)", qi, q.algo, q.k, q.eps)
		warm, err := sess.Maximize(stopandstare.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps})
		if err != nil {
			t.Fatalf("%s: warm: %v", ctx, err)
		}
		cold, err := stopandstare.MaximizeTargeted(g, stopandstare.LT, weights, q.algo,
			stopandstare.Options{K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatalf("%s: cold: %v", ctx, err)
		}
		if !slices.Equal(warm.Seeds, cold.Seeds) || warm.InfluenceEstimate != cold.BenefitEstimate ||
			warm.Samples != cold.Samples {
			t.Fatalf("%s: warm %v/%v/%d vs cold %v/%v/%d", ctx,
				warm.Seeds, warm.InfluenceEstimate, warm.Samples,
				cold.Seeds, cold.BenefitEstimate, cold.Samples)
		}
	}
}

// TestSessionSolverCacheBounded: the per-k solver cache is an LRU capped at
// 16 entries, so a k-sweeping (or adversarial HTTP) query stream cannot
// grow per-session memory without bound — and a query whose k was evicted
// still returns its exact cold-run result (the rebuilt solver rescans).
func TestSessionSolverCacheBounded(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 77)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Maximize(stopandstare.Query{K: 1, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 24; k++ { // sweep past the cache limit, evicting k=1
		if _, err := sess.Maximize(stopandstare.Query{K: k, Epsilon: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.Stats(); st.Solvers > 16 {
		t.Fatalf("solver cache grew to %d entries, cap is 16", st.Solvers)
	}
	again, err := sess.Maximize(stopandstare.Query{K: 1, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Seeds, first.Seeds) || again.Samples != first.Samples {
		t.Fatalf("evicted-k requery drifted: %v/%d vs %v/%d",
			again.Seeds, again.Samples, first.Seeds, first.Samples)
	}
}

// TestSessionPlanCompiledOnce pins the acceptance invariant: any number of
// sessions, samplers and one-shot runs on one (graph, model) compile the
// sampling plan exactly once, process-wide.
func TestSessionPlanCompiledOnce(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 123)
	if err != nil {
		t.Fatal(err)
	}
	defer stopandstare.DropCachedPlans(g)
	if n := ris.PlanCompilations(g, diffusion.IC); n != 0 {
		t.Fatalf("fresh graph already has %d compilations", n)
	}
	for i := 0; i < 3; i++ {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: uint64(i), Workers: 2, Shards: 2 * i, // one-shard and sharded sessions
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Maximize(stopandstare.Query{K: 4, Epsilon: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	// One-shot runs and a certificate on the same graph join the sharing.
	if _, err := stopandstare.Maximize(g, stopandstare.IC, stopandstare.DSSA,
		stopandstare.Options{K: 3, Epsilon: 0.4, Seed: 9, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := stopandstare.CertifySpread(g, stopandstare.IC, []uint32{1, 2}, 0.3, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	if n := ris.PlanCompilations(g, diffusion.IC); n != 1 {
		t.Fatalf("plan compiled %d times for (graph, IC), want exactly 1", n)
	}
	// The LT plan is a separate entry, also compiled at most once.
	if _, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.DSSA,
		stopandstare.Options{K: 3, Epsilon: 0.4, Seed: 9, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n := ris.PlanCompilations(g, diffusion.LT); n != 1 {
		t.Fatalf("plan compiled %d times for (graph, LT), want exactly 1", n)
	}
}

// TestSessionAccounting pins the memory-accounting satellite: a plan-kernel
// run's MemoryBytes includes the compiled plan, and Session.Stats reports
// plan and store bytes separately (summing back to the store's total).
func TestSessionAccounting(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 321)
	if err != nil {
		t.Fatal(err)
	}
	defer stopandstare.DropCachedPlans(g)
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Maximize(stopandstare.Query{K: 5, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	plan := ris.CachedPlanBytes(g, diffusion.IC)
	if plan <= 0 {
		t.Fatal("plan kernel run left no cached plan")
	}
	if res.MemoryBytes < plan {
		t.Fatalf("Result.MemoryBytes %d excludes the plan (%d bytes)", res.MemoryBytes, plan)
	}
	st := sess.Stats()
	if st.PlanBytes != plan {
		t.Fatalf("Stats.PlanBytes %d != cached plan bytes %d", st.PlanBytes, plan)
	}
	if st.StoreBytes <= 0 || st.Queries != 1 || st.Samples <= 0 || st.Solvers != 1 {
		t.Fatalf("stats snapshot off: %+v", st)
	}
	if got := st.StoreBytes + st.PlanBytes; got != res.MemoryBytes {
		t.Fatalf("StoreBytes+PlanBytes = %d, want store total %d", got, res.MemoryBytes)
	}
}
