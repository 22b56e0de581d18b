package ris

import (
	"math"
	"math/bits"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// This file implements compiled sampling plans: a per-(graph, model)
// preprocessing pass that classifies every node's in-edge list and emits a
// sampling-specific layout, so the RR-generation inner loop — the entire
// cost of the pipeline once solving and indexing are incremental — does as
// little per-edge work as the distribution allows:
//
//   - uniform-weight nodes (ALL nodes of a weighted-cascade graph, where
//     w(u,v) = 1/d_in(v) is shared by every in-edge of v) sample the next
//     live in-edge by geometric skipping: one draw lands on the next
//     success, collapsing d_in Bernoulli draws to ~1 + #live;
//   - general (mixed-weight) nodes precompute each edge's activation
//     threshold as a uint64, interleaved with the neighbour id in one fused
//     record, so the inner loop is a single integer compare with no float
//     conversion and no second cache stream for the weights;
//   - LT nodes get per-node alias tables over (in-neighbours + stop), so a
//     reverse-walk step costs one draw and O(1) work instead of the
//     O(log d_in) binary search of graph.SampleLTInNeighbor.
//
// The plan kernels are the only sampler. plan_test.go checks them against
// a direct-translation reference kept in the tests (one float Bernoulli
// draw per IC edge, one binary search per LT step): the two consume
// different PRNG sequences, so sets differ one by one, and the harness
// proves they draw from the same distribution instead. The invariants every
// store and algorithm relies on hold as before: RR set i is a pure function
// of (seed, i), and generation is independent of worker count and store
// topology.

// IC node classes.
const (
	classUniform uint8 = iota // all in-edges share one weight: geometric skipping
	classGeneral              // mixed weights: fused uint64-threshold records
)

// planEdge is the fused per-edge record of general (mixed-weight) IC nodes:
// the activation threshold and the neighbour id in one 16-byte stride, so
// the kernel touches a single sequential stream instead of parallel
// adjacency and weight arrays.
type planEdge struct {
	thr uint64 // edge is live iff Bernoulli64(thr)
	nbr uint32 // in-neighbour (edge source)
	_   uint32 // padding, keeps the stride explicit
}

// ltSlot is one alias-table slot of an LT node. A node with in-degree d has
// d+1 slots: outcome j < d is "step to in-neighbour nbr", outcome d is
// "stop" (the 1 − Σw deficit). One 64-bit draw resolves a step: the high
// product bits pick the slot, the low bits are the within-slot fraction
// compared against thr, and the alias redirect plus the neighbour id live
// in the same record.
type ltSlot struct {
	thr uint64 // keep outcome j iff fraction < thr
	alt uint32 // alias outcome when the fraction is ≥ thr
	nbr uint32 // in-neighbour of outcome j (unused for the stop slot)
}

// Plan is a compiled sampling plan for one (graph, model) pair: immutable
// after compilation and safe to share across goroutines, like the graph it
// was compiled from. Samplers compile one lazily on first use (see
// Sampler.Plan), shared per (graph, model) through the plan registry.
type Plan struct {
	model diffusion.Model
	n     int
	deg   []int32 // in-degree per node: width accounting without inIdx lookups

	// IC state. inIdx/inAdj alias the graph's reverse CSR (uniform nodes
	// walk the raw adjacency — skipping needs no weights); general nodes
	// carry their fused records in gen at window genOff[v]:genOff[v+1].
	class  []uint8
	lnq    []float64 // uniform nodes: ln(1−p), the Geometric parameter
	inIdx  []int64
	inAdj  []uint32
	gen    []planEdge
	genOff []int64 // len n+1; zero-width for uniform nodes, nil if none general

	// LT state: node v's alias slots are lt[ltOff[v]:ltOff[v+1]]
	// (in-degree + 1 of them; the last is the stop outcome).
	lt    []ltSlot
	ltOff []int64
}

// NewPlan compiles the sampling plan for g under model. Compilation streams
// the reverse CSR once — degrees, classification and record emission happen
// in the same per-node visit (plus the per-node Vose builds for LT), so a
// mapped graph's idx/adj/weight pages are forced exactly one time — and the
// result shares the graph's adjacency storage where the kernel needs no
// extra per-edge state.
func NewPlan(g *graph.Graph, model diffusion.Model) *Plan {
	n := g.NumNodes()
	idx, adj, w := g.ReverseCSR()
	p := &Plan{model: model, n: n, deg: make([]int32, n)}
	if model == diffusion.IC {
		p.compileIC(idx, adj, w)
	} else {
		p.compileLT(g, idx, adj, w)
	}
	return p
}

// Model returns the model the plan was compiled for.
func (p *Plan) Model() diffusion.Model { return p.model }

// Bytes approximates the plan's own memory (excluding the aliased graph
// arrays).
func (p *Plan) Bytes() int64 {
	return int64(cap(p.deg))*4 + int64(cap(p.class)) + int64(cap(p.lnq))*8 +
		int64(cap(p.gen))*16 + int64(cap(p.genOff))*8 +
		int64(cap(p.lt))*16 + int64(cap(p.ltOff))*8
}

// compileIC classifies each node, records its degree and lays out the fused
// records for the general class, all in one pass over the reverse CSR — a
// mapped graph's pages are touched once. Weighted-cascade graphs classify
// every node uniform, so gen/genOff stay nil and the plan costs 13
// bytes/node over the graph.
func (p *Plan) compileIC(idx []int64, adj []uint32, w []float32) {
	n := p.n
	p.inIdx, p.inAdj = idx, adj
	p.class = make([]uint8, n)
	p.lnq = make([]float64, n)
	for v := 0; v < n; v++ {
		lo, hi := idx[v], idx[v+1]
		p.deg[v] = int32(hi - lo)
		ws := w[lo:hi]
		uniform := true
		for i := 1; i < len(ws); i++ {
			if ws[i] != ws[0] {
				uniform = false
				break
			}
		}
		if uniform {
			if len(ws) > 0 {
				p.lnq[v] = rng.LogQ(float64(ws[0]))
			}
			if p.genOff != nil {
				p.genOff[v+1] = int64(len(p.gen))
			}
			continue
		}
		p.class[v] = classGeneral
		if p.genOff == nil {
			// First mixed-weight node: the zeroed prefix of a fresh genOff is
			// already correct for every uniform node seen so far.
			p.genOff = make([]int64, n+1)
		}
		for i := lo; i < hi; i++ {
			p.gen = append(p.gen, planEdge{thr: rng.Threshold64(float64(w[i])), nbr: adj[i]})
		}
		p.genOff[v+1] = int64(len(p.gen))
	}
}

// compileLT builds one Vose alias table per node over its in-neighbours
// plus the stop outcome (probability 1 − Σw, clamped at 0 for graphs at the
// LT tolerance boundary), with slot probabilities stored as uint64
// thresholds.
func (p *Plan) compileLT(g *graph.Graph, idx []int64, adj []uint32, w []float32) {
	n := p.n
	p.ltOff = make([]int64, n+1)
	// One pass over the offset table fills degrees, the slot offsets and the
	// Vose scratch bound together.
	maxOut := 0
	for v := 0; v < n; v++ {
		d := int32(idx[v+1] - idx[v])
		p.deg[v] = d
		p.ltOff[v+1] = p.ltOff[v] + int64(d) + 1
		if int(d)+1 > maxOut {
			maxOut = int(d) + 1
		}
	}
	p.lt = make([]ltSlot, p.ltOff[n])
	scaled := make([]float64, maxOut)
	small := make([]int32, 0, maxOut)
	large := make([]int32, 0, maxOut)
	for v := 0; v < n; v++ {
		d := int(p.deg[v])
		slots := p.lt[p.ltOff[v]:p.ltOff[v+1]]
		sum := g.InWeightSum(uint32(v))
		stop := 1 - sum
		if stop < 0 { // LT tolerance boundary: Σw may exceed 1 by ~1e-6
			stop = 0
		}
		total := sum + stop
		// Outcome weights: the d in-edge weights, then the stop deficit.
		m := d + 1
		small, large = small[:0], large[:0]
		for j := 0; j < m; j++ {
			var wj float64
			if j < d {
				wj = float64(w[idx[v]+int64(j)])
				slots[j].nbr = adj[idx[v]+int64(j)]
			} else {
				wj = stop
			}
			scaled[j] = wj * float64(m) / total
			if scaled[j] < 1 {
				small = append(small, int32(j))
			} else {
				large = append(large, int32(j))
			}
		}
		for len(small) > 0 && len(large) > 0 {
			s := small[len(small)-1]
			small = small[:len(small)-1]
			l := large[len(large)-1]
			large = large[:len(large)-1]
			slots[s].thr = rng.Threshold64(scaled[s])
			slots[s].alt = uint32(l)
			scaled[l] = (scaled[l] + scaled[s]) - 1
			if scaled[l] < 1 {
				small = append(small, l)
			} else {
				large = append(large, l)
			}
		}
		for _, l := range large {
			slots[l].thr = math.MaxUint64
			slots[l].alt = uint32(l)
		}
		for _, s := range small { // numerical leftovers
			slots[s].thr = math.MaxUint64
			slots[s].alt = uint32(s)
		}
	}
}

// appendSample runs one RR-set generation under the compiled kernels. The
// caller has drawn the root, reset st, marked and appended the root at
// buf[start]. Returns the grown buffer and the set's width Σ d_in.
func (p *Plan) appendSample(r *rng.Source, st *State, buf []uint32, start int, root uint32) ([]uint32, int64) {
	width := int64(p.deg[root])
	if p.model == diffusion.IC {
		for head := start; head < len(buf); head++ {
			x := buf[head]
			if p.class[x] != classUniform {
				// Fused threshold records: one integer compare per edge.
				for _, e := range p.gen[p.genOff[x]:p.genOff[x+1]] {
					if r.Bernoulli64(e.thr) {
						if u := e.nbr; st.marks.Visit(int32(u)) {
							buf = append(buf, u)
							width += int64(p.deg[u])
						}
					}
				}
				continue
			}
			adj := p.inAdj[p.inIdx[x]:p.inIdx[x+1]]
			if len(adj) == 0 {
				continue
			}
			// Geometric skipping: each draw jumps to the next live edge, so
			// the node costs 1 + #live draws instead of d_in.
			lnq := p.lnq[x]
			for i := r.Geometric(lnq); i < int64(len(adj)); i += 1 + r.Geometric(lnq) {
				if u := adj[i]; st.marks.Visit(int32(u)) {
					buf = append(buf, u)
					width += int64(p.deg[u])
				}
			}
		}
		return buf, width
	}
	// LT reverse walk over alias tables: one draw per step — high product
	// bits pick the slot, low bits resolve the alias redirect.
	x := root
	for {
		base := p.ltOff[x]
		nslots := uint64(p.ltOff[x+1] - base)
		j, frac := bits.Mul64(r.Uint64(), nslots)
		s := &p.lt[base+int64(j)]
		if frac >= s.thr {
			j = uint64(s.alt)
			s = &p.lt[base+int64(j)]
		}
		if j == nslots-1 {
			break // stop outcome: the threshold deficit won
		}
		u := s.nbr
		if !st.marks.Visit(int32(u)) {
			break // revisit terminates the walk, as in the oracle
		}
		buf = append(buf, u)
		width += int64(p.deg[u])
		x = u
	}
	return buf, width
}
