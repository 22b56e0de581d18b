package ris

import (
	"container/list"
	"sync"
	"sync/atomic"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
)

// This file is the process-wide plan cache: compiled sampling plans are
// keyed by (graph, model), so every sampler on the same graph — plain RIS,
// weighted WRIS, samplers inside long-lived serving Sessions and throwaway
// samplers inside one-shot Maximize calls — shares one compilation. The
// plan depends only on the graph topology/weights and the propagation
// model, so one entry per (graph, model) is one compilation per
// (graph, model).
//
// Keys are graph *pointers*: graphs are immutable after construction in this
// codebase, and pointer identity is exactly the sharing the serving layer
// wants (two loads of the same file are different graphs and legitimately
// recompile). Mapped graphs (graph.OpenMapped) key identically: the Graph
// façade is one heap object per open no matter where its arrays live, so a
// served .sasg graph compiles its plan once exactly like a heap graph —
// pinned by TestPlanCacheMappedGraph.
//
// The registry is a bounded LRU (planCacheLimit live (graph, model) keys),
// so a process churning through a stream of throwaway graphs — a parameter
// sweep generating one per trial, say — cannot pin graphs and plans without
// bound: the oldest entry (and with it the only registry reference to its
// graph) falls out when the cap is exceeded. Eviction never breaks a live
// sampler: samplers hold their cache slot directly and keep working; only
// *future* samplers on the evicted (graph, model) recompile. A server that
// retires a graph deliberately should still call DropCachedPlans to release
// it immediately rather than waiting for churn.

// planCacheLimit bounds the number of live (graph, model) registry entries.
// Far above any realistic number of concurrently-served graphs, while
// keeping the worst-case pinned memory proportional to a constant number of
// graphs rather than to the process's whole allocation history.
const planCacheLimit = 128

// planKey identifies one compiled plan.
type planKey struct {
	g     *graph.Graph
	model diffusion.Model
}

// planCache holds one lazily compiled plan plus its compile counter. All
// samplers on the same (graph, model) share one instance through the
// registry, so the sync.Once makes concurrent first uses compile once.
type planCache struct {
	once     sync.Once
	plan     atomic.Pointer[Plan]
	compiles atomic.Int64
}

// planEntry is one LRU node: the key plus its shared cache slot.
type planEntry struct {
	key planKey
	pc  *planCache
}

// planRegistry is the bounded LRU of plan cache slots. The mutex guards
// only the map/list bookkeeping — compilation itself runs outside it,
// serialized per entry by the planCache's own sync.Once.
var planRegistry = struct {
	mu      sync.Mutex
	entries map[planKey]*list.Element
	order   *list.List // front = most recently used
}{
	entries: make(map[planKey]*list.Element),
	order:   list.New(),
}

// sharedPlanCache returns the process-wide cache slot for (g, model),
// creating the (empty, not yet compiled) slot on first request and
// evicting the least recently used key beyond planCacheLimit.
func sharedPlanCache(g *graph.Graph, model diffusion.Model) *planCache {
	k := planKey{g: g, model: model}
	r := &planRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.entries[k]; ok {
		r.order.MoveToFront(el)
		return el.Value.(*planEntry).pc
	}
	pc := &planCache{}
	r.entries[k] = r.order.PushFront(&planEntry{key: k, pc: pc})
	for len(r.entries) > planCacheLimit {
		oldest := r.order.Back()
		delete(r.entries, oldest.Value.(*planEntry).key)
		r.order.Remove(oldest)
	}
	return pc
}

// lookupPlanCache returns the live cache slot for (g, model) without
// creating or promoting it (reads must not disturb the LRU order).
func lookupPlanCache(g *graph.Graph, model diffusion.Model) (*planCache, bool) {
	r := &planRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[planKey{g: g, model: model}]
	if !ok {
		return nil, false
	}
	return el.Value.(*planEntry).pc, true
}

// PlanCompilations reports how many times a plan was compiled for the LIVE
// registry entry of (g, model) — 0 before first use, and 1 forever after
// unless the entry is evicted and recompiled. The serving layer's "plan
// compiled exactly once per (graph, model) across all sessions and
// samplers" invariant is pinned against this counter.
func PlanCompilations(g *graph.Graph, model diffusion.Model) int64 {
	if pc, ok := lookupPlanCache(g, model); ok {
		return pc.compiles.Load()
	}
	return 0
}

// CachedPlanBytes reports the resident bytes of the compiled plan for
// (g, model), 0 if none was compiled. Non-forcing.
func CachedPlanBytes(g *graph.Graph, model diffusion.Model) int64 {
	if pc, ok := lookupPlanCache(g, model); ok {
		if p := pc.plan.Load(); p != nil {
			return p.Bytes()
		}
	}
	return 0
}

// DropCachedPlans evicts the cached plans of g (both models) from the
// registry, releasing the graph key. Samplers already holding the plan keep
// working — eviction only makes future samplers recompile.
func DropCachedPlans(g *graph.Graph) {
	r := &planRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		if el, ok := r.entries[planKey{g: g, model: model}]; ok {
			delete(r.entries, planKey{g: g, model: model})
			r.order.Remove(el)
		}
	}
}
