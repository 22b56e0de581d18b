package stopandstare_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"stopandstare"
)

// This file pins SSA, D-SSA and IMM answers at fixed seeds as a checked-in
// table, and requires every RR-store topology to reproduce it exactly: the
// default store, three in-process shards, a spill tier that spills
// everything, a store recovered from a snapshot, and a store over a mapped
// .sasg graph. The differential harnesses compare topologies with each
// other; this table anchors them to recorded numbers, so a change that
// shifts every topology alike (sampling, the doubling schedule, the solver)
// fails here too. IMM builds its own store from Options, so it runs on the
// topologies that surface exposes: default, Shards: 3 and mapped.

type goldenCase struct {
	model   stopandstare.Model
	seed    uint64
	algo    stopandstare.Algorithm
	k       int
	eps     float64
	samples int64
	seeds   []uint32
}

func (c goldenCase) key() string {
	return fmt.Sprintf("%v/seed=%d/%s/k=%d/eps=%v", c.model, c.seed, c.algo, c.k, c.eps)
}

// literal renders a case as the Go source line goldenTable holds, so a
// deliberate change can be re-recorded from the failure message.
func (c goldenCase) literal() string {
	s := make([]string, len(c.seeds))
	for i, v := range c.seeds {
		s[i] = fmt.Sprint(v)
	}
	return fmt.Sprintf("{stopandstare.%v, %d, stopandstare.%s, %d, %v, %d, []uint32{%s}},",
		c.model, c.seed, goldenAlgoName[c.algo], c.k, c.eps, c.samples, strings.Join(s, ", "))
}

var goldenAlgoName = map[stopandstare.Algorithm]string{
	stopandstare.SSA: "SSA", stopandstare.DSSA: "DSSA", stopandstare.IMM: "IMM",
}

// goldenGraph is the table's input: a 1200-node power-law graph with
// weighted-cascade probabilities, small enough that the whole grid runs in
// seconds.
func goldenGraph(t *testing.T) *stopandstare.Graph {
	t.Helper()
	g, err := stopandstare.GeneratePowerLaw(1200, 7200, 2.1, 2016)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopandstare.DropCachedPlans(g) })
	return g
}

// goldenQueries enumerates the grid in table order.
func goldenQueries() []goldenCase {
	var out []goldenCase
	for _, m := range []stopandstare.Model{stopandstare.IC, stopandstare.LT} {
		for _, seed := range []uint64{3, 11} {
			for _, algo := range []stopandstare.Algorithm{stopandstare.SSA, stopandstare.DSSA, stopandstare.IMM} {
				for _, k := range []int{5, 20} {
					for _, eps := range []float64{0.1, 0.3} {
						out = append(out, goldenCase{model: m, seed: seed, algo: algo, k: k, eps: eps})
					}
				}
			}
		}
	}
	return out
}

// goldenTable was recorded from the flat store before it was folded into the
// one-shard ShardedCollection.
var goldenTable = []goldenCase{
	{stopandstare.IC, 3, stopandstare.SSA, 5, 0.1, 31445, []uint32{82, 378, 461, 239, 941}},
	{stopandstare.IC, 3, stopandstare.SSA, 5, 0.3, 3855, []uint32{82, 378, 1167, 239, 941}},
	{stopandstare.IC, 3, stopandstare.SSA, 20, 0.1, 35071, []uint32{82, 378, 461, 239, 941, 1167, 175, 754, 441, 939, 959, 388, 814, 304, 745, 101, 562, 210, 774, 1106}},
	{stopandstare.IC, 3, stopandstare.SSA, 20, 0.3, 3262, []uint32{82, 378, 1167, 239, 941, 461, 441, 754, 939, 175, 745, 304, 562, 210, 773, 1176, 484, 1106, 814, 926}},
	{stopandstare.IC, 3, stopandstare.DSSA, 5, 0.1, 17784, []uint32{82, 378, 461, 941, 239}},
	{stopandstare.IC, 3, stopandstare.DSSA, 5, 0.3, 4208, []uint32{82, 378, 1167, 239, 941}},
	{stopandstare.IC, 3, stopandstare.DSSA, 20, 0.1, 17648, []uint32{82, 378, 461, 941, 239, 1167, 754, 441, 175, 939, 959, 304, 814, 745, 388, 210, 562, 774, 484, 552}},
	{stopandstare.IC, 3, stopandstare.DSSA, 20, 0.3, 2088, []uint32{82, 461, 1167, 239, 378, 754, 939, 441, 175, 1106, 552, 745, 562, 941, 369, 15, 359, 926, 680, 210}},
	{stopandstare.IC, 3, stopandstare.IMM, 5, 0.1, 36314, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.IC, 3, stopandstare.IMM, 5, 0.3, 5000, []uint32{82, 378, 461, 941, 239}},
	{stopandstare.IC, 3, stopandstare.IMM, 20, 0.1, 52406, []uint32{82, 378, 461, 239, 1167, 941, 175, 441, 754, 388, 959, 939, 304, 814, 552, 774, 562, 745, 101, 1106}},
	{stopandstare.IC, 3, stopandstare.IMM, 20, 0.3, 7079, []uint32{82, 378, 461, 941, 239, 1167, 754, 441, 175, 939, 959, 745, 814, 304, 388, 210, 359, 484, 774, 1176}},
	{stopandstare.IC, 11, stopandstare.SSA, 5, 0.1, 31395, []uint32{82, 378, 239, 461, 941}},
	{stopandstare.IC, 11, stopandstare.SSA, 5, 0.3, 6015, []uint32{82, 378, 239, 461, 941}},
	{stopandstare.IC, 11, stopandstare.SSA, 20, 0.1, 17468, []uint32{82, 378, 461, 239, 941, 1167, 175, 441, 562, 939, 754, 304, 388, 745, 814, 854, 959, 693, 552, 408}},
	{stopandstare.IC, 11, stopandstare.SSA, 20, 0.3, 3292, []uint32{82, 378, 239, 941, 441, 461, 562, 1167, 175, 304, 388, 754, 854, 408, 1117, 686, 926, 745, 979, 552}},
	{stopandstare.IC, 11, stopandstare.DSSA, 5, 0.1, 17784, []uint32{82, 378, 461, 239, 941}},
	{stopandstare.IC, 11, stopandstare.DSSA, 5, 0.3, 4208, []uint32{82, 378, 239, 941, 441}},
	{stopandstare.IC, 11, stopandstare.DSSA, 20, 0.1, 17648, []uint32{82, 378, 461, 239, 941, 1167, 175, 441, 562, 939, 754, 304, 388, 745, 814, 854, 959, 693, 552, 408}},
	{stopandstare.IC, 11, stopandstare.DSSA, 20, 0.3, 2088, []uint32{82, 239, 378, 441, 941, 175, 562, 304, 461, 408, 686, 545, 854, 939, 979, 814, 848, 1176, 15, 754}},
	{stopandstare.IC, 11, stopandstare.IMM, 5, 0.1, 36636, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.IC, 11, stopandstare.IMM, 5, 0.3, 4894, []uint32{82, 378, 239, 461, 941}},
	{stopandstare.IC, 11, stopandstare.IMM, 20, 0.1, 52451, []uint32{82, 378, 239, 461, 1167, 941, 175, 441, 388, 754, 939, 959, 562, 304, 814, 745, 210, 484, 693, 774}},
	{stopandstare.IC, 11, stopandstare.IMM, 20, 0.3, 7232, []uint32{82, 378, 239, 461, 941, 1167, 175, 441, 562, 939, 304, 754, 388, 814, 745, 959, 408, 693, 552, 854}},
	{stopandstare.LT, 3, stopandstare.SSA, 5, 0.1, 15299, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.LT, 3, stopandstare.SSA, 5, 0.3, 1873, []uint32{82, 378, 1167, 175, 239}},
	{stopandstare.LT, 3, stopandstare.SSA, 20, 0.1, 13472, []uint32{82, 378, 461, 239, 1167, 941, 175, 441, 388, 754, 939, 304, 959, 552, 562, 210, 609, 773, 589, 1053}},
	{stopandstare.LT, 3, stopandstare.SSA, 20, 0.3, 1671, []uint32{82, 378, 461, 175, 239, 1167, 441, 754, 941, 552, 210, 304, 562, 745, 959, 939, 1078, 773, 1103, 545}},
	{stopandstare.LT, 3, stopandstare.DSSA, 5, 0.1, 8892, []uint32{82, 378, 461, 239, 941}},
	{stopandstare.LT, 3, stopandstare.DSSA, 5, 0.3, 2104, []uint32{82, 378, 1167, 175, 239}},
	{stopandstare.LT, 3, stopandstare.DSSA, 20, 0.1, 8824, []uint32{82, 378, 461, 239, 941, 175, 1167, 441, 754, 388, 939, 304, 210, 959, 562, 552, 609, 589, 1053, 745}},
	{stopandstare.LT, 3, stopandstare.DSSA, 20, 0.3, 1044, []uint32{82, 378, 1167, 239, 175, 754, 304, 441, 1100, 461, 210, 745, 1126, 1078, 133, 972, 609, 773, 169, 1103}},
	{stopandstare.LT, 3, stopandstare.IMM, 5, 0.1, 17375, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.LT, 3, stopandstare.IMM, 5, 0.3, 2406, []uint32{82, 378, 461, 239, 941}},
	{stopandstare.LT, 3, stopandstare.IMM, 20, 0.1, 27933, []uint32{82, 378, 461, 239, 1167, 175, 941, 441, 388, 754, 939, 304, 552, 959, 562, 210, 589, 745, 609, 1053}},
	{stopandstare.LT, 3, stopandstare.IMM, 20, 0.3, 3814, []uint32{82, 378, 461, 239, 941, 175, 441, 1167, 754, 939, 304, 388, 552, 562, 959, 210, 609, 745, 589, 816}},
	{stopandstare.LT, 11, stopandstare.SSA, 5, 0.1, 15274, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.LT, 11, stopandstare.SSA, 5, 0.3, 1941, []uint32{378, 82, 461, 1167, 441}},
	{stopandstare.LT, 11, stopandstare.SSA, 20, 0.1, 13445, []uint32{82, 378, 461, 239, 1167, 941, 441, 754, 175, 388, 562, 939, 745, 304, 210, 959, 609, 589, 854, 552}},
	{stopandstare.LT, 11, stopandstare.SSA, 20, 0.3, 1673, []uint32{378, 82, 461, 1167, 441, 941, 239, 175, 939, 388, 754, 686, 545, 227, 959, 670, 408, 482, 609, 1078}},
	{stopandstare.LT, 11, stopandstare.DSSA, 5, 0.1, 8892, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.LT, 11, stopandstare.DSSA, 5, 0.3, 2104, []uint32{378, 82, 461, 1167, 441}},
	{stopandstare.LT, 11, stopandstare.DSSA, 20, 0.1, 8824, []uint32{82, 378, 461, 239, 1167, 175, 441, 941, 939, 754, 388, 562, 906, 745, 854, 210, 552, 609, 227, 773}},
	{stopandstare.LT, 11, stopandstare.DSSA, 20, 0.3, 1044, []uint32{378, 461, 82, 1167, 239, 754, 939, 441, 388, 552, 1100, 941, 230, 956, 774, 686, 670, 1078, 1106, 562}},
	{stopandstare.LT, 11, stopandstare.IMM, 5, 0.1, 17280, []uint32{82, 378, 461, 239, 1167}},
	{stopandstare.LT, 11, stopandstare.IMM, 5, 0.3, 2410, []uint32{82, 378, 461, 1167, 239}},
	{stopandstare.LT, 11, stopandstare.IMM, 20, 0.1, 27903, []uint32{82, 378, 461, 239, 1167, 175, 941, 441, 754, 388, 939, 562, 304, 959, 745, 552, 210, 609, 589, 1053}},
	{stopandstare.LT, 11, stopandstare.IMM, 20, 0.3, 3861, []uint32{82, 378, 461, 239, 1167, 175, 441, 941, 388, 939, 754, 562, 670, 906, 227, 745, 210, 609, 101, 589}},
}

// goldenRun answers every case of the grid on one store topology. sessionFor
// builds the SSA/D-SSA session for (model, seed); imm, when non-nil, fills
// the IMM Options (nil skips IMM on topologies it cannot be built on).
func goldenRun(t *testing.T, g *stopandstare.Graph,
	sessionFor func(m stopandstare.Model, seed uint64) *stopandstare.Session,
	imm func(o *stopandstare.Options)) map[string]goldenCase {
	t.Helper()
	got := map[string]goldenCase{}
	sessions := map[string]*stopandstare.Session{}
	for _, c := range goldenQueries() {
		var res *stopandstare.Result
		var err error
		if c.algo == stopandstare.IMM {
			if imm == nil {
				continue
			}
			o := stopandstare.Options{K: c.k, Epsilon: c.eps, Seed: c.seed, Workers: 2}
			imm(&o)
			res, err = stopandstare.Maximize(g, c.model, c.algo, o)
		} else {
			sk := fmt.Sprintf("%v/%d", c.model, c.seed)
			sess := sessions[sk]
			if sess == nil {
				sess = sessionFor(c.model, c.seed)
				sessions[sk] = sess
			}
			res, err = sess.Maximize(stopandstare.Query{Algorithm: c.algo, K: c.k, Epsilon: c.eps})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		c.samples, c.seeds = res.Samples, res.Seeds
		got[c.key()] = c
	}
	return got
}

func checkGolden(t *testing.T, topo string, got map[string]goldenCase) {
	t.Helper()
	if len(goldenTable) == 0 {
		var b strings.Builder
		for _, c := range goldenQueries() {
			if r, ok := got[c.key()]; ok {
				b.WriteString("\t" + r.literal() + "\n")
			}
		}
		t.Fatalf("%s: golden table is empty; recorded:\n%s", topo, b.String())
	}
	checked := 0
	for _, want := range goldenTable {
		r, ok := got[want.key()]
		if !ok {
			continue
		}
		checked++
		if r.samples != want.samples || !slices.Equal(r.seeds, want.seeds) {
			t.Errorf("%s: %s = %d samples %v, golden %d samples %v\n\t%s",
				topo, want.key(), r.samples, r.seeds, want.samples, want.seeds, r.literal())
		}
	}
	if checked != len(got) {
		t.Fatalf("%s: %d answers, %d matched golden keys", topo, len(got), checked)
	}
}

func TestGoldenAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid runs the full SSA/D-SSA/IMM table per topology")
	}
	g := goldenGraph(t)
	sessionWith := func(g *stopandstare.Graph, opt stopandstare.SessionOptions) func(stopandstare.Model, uint64) *stopandstare.Session {
		return func(m stopandstare.Model, seed uint64) *stopandstare.Session {
			o := opt
			o.Seed, o.Workers = seed, 2
			sess, err := stopandstare.NewSession(g, m, o)
			if err != nil {
				t.Fatal(err)
			}
			return sess
		}
	}

	t.Run("default", func(t *testing.T) {
		checkGolden(t, "default", goldenRun(t, g, sessionWith(g, stopandstare.SessionOptions{}), func(*stopandstare.Options) {}))
	})
	t.Run("shards3", func(t *testing.T) {
		checkGolden(t, "shards3", goldenRun(t, g, sessionWith(g, stopandstare.SessionOptions{Shards: 3}),
			func(o *stopandstare.Options) { o.Shards = 3 }))
	})
	t.Run("spilled", func(t *testing.T) {
		open := sessionWith(g, stopandstare.SessionOptions{SpillBudgetBytes: 1, SpillDir: t.TempDir()})
		checkGolden(t, "spilled", goldenRun(t, g, func(m stopandstare.Model, seed uint64) *stopandstare.Session {
			sess := open(m, seed)
			t.Cleanup(func() {
				if st := sess.Stats(); st.StoreSpilledBytes == 0 {
					t.Errorf("spilled %v/%d: nothing spilled (%+v)", m, seed, st)
				}
			})
			return sess
		}, nil))
	})
	t.Run("recovered", func(t *testing.T) {
		// Each session's stream is grown by one query, persisted, and the
		// grid then runs on a second session recovered from that snapshot.
		checkGolden(t, "recovered", goldenRun(t, g, func(m stopandstare.Model, seed uint64) *stopandstare.Session {
			open := sessionWith(g, stopandstare.SessionOptions{StateDir: t.TempDir()})
			first := open(m, seed)
			if _, err := first.Maximize(stopandstare.Query{K: 5, Epsilon: 0.3}); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Persist(); err != nil {
				t.Fatal(err)
			}
			sess := open(m, seed)
			if st := sess.Stats(); st.Recovered == 0 {
				t.Fatalf("recovered %v/%d: session started cold (%+v)", m, seed, st)
			}
			return sess
		}, nil))
	})
	t.Run("mapped", func(t *testing.T) {
		mg := mappedSessionTwin(t, g)
		checkGolden(t, "mapped", goldenRun(t, mg, sessionWith(mg, stopandstare.SessionOptions{}), func(*stopandstare.Options) {}))
	})
}
