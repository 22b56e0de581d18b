package ris

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"stopandstare/internal/rng"
)

// This file is the storage engine the RR-set store is built from:
//
//   - segment: a flat arena of RR sets plus a size-tiered CSR inverted
//     index over them. ShardedCollection wraps one segment per shard, with
//     gids mapping segment-local set indices to global stream ids (no table
//     when one in-process shard holds the whole stream).
//   - sampleChunks: deterministic parallel generation of a global id range
//     (RR set i is always produced by the PRNG stream (seed, i), so the
//     output is bit-identical for any worker count and any sharding).
//   - Postings: the zero-allocation iterator over a node's postings runs,
//     walking a sequence of segments.

// chunkSize is the number of RR sets per parallel work unit.
const chunkSize = 512

// indexItemsPerWorker is the minimum number of postings per index-build
// worker; smaller batches are built serially (the per-worker count arrays
// cost O(n) each, which only pays off over enough items).
const indexItemsPerWorker = 1 << 13

// csrBlock is an inverted-index block over the contiguous run of
// segment-local sets [lfrom, lto): the sets containing node v within the
// run are ids[starts[v]:starts[v+1]], ascending. The stored ids are GLOBAL
// stream ids ([from, to) bounds them), so postings runs can be handed to
// algorithms as-is regardless of which shard they came from; in a one-shard
// store local and global indices coincide. One block is appended per
// growth call; small trailing blocks are merged size-tiered (see
// segment.appendIndexBlock), so any call pattern leaves O(log |R|) blocks.
type csrBlock struct {
	from, to   int     // global id bounds: every stored id is in [from, to)
	lfrom, lto int     // segment-local set range the block indexes
	starts     []int32 // len = NumNodes+1; block-local offsets into ids
	ids        []int32 // global RR-set ids, ascending within each node's run

	spilled *spillMapping // non-nil ⇒ starts/ids alias the spill file
	lastUse atomic.Uint64 // spill-LRU recency
}

// segment is one arena + CSR index over a sub-stream of RR sets. It is not
// a Store by itself: ShardedCollection layers id mapping, generation and
// coverage queries on top.
type segment struct {
	n       int      // node count of the underlying graph
	buf     []uint32 // arena tail: entries of sets not yet frozen into extents
	offsets []int64  // len = nsets()+1; absolute item offsets across extents+tail
	gids    []int32  // global id per local set; nil ⇒ identity (one in-process shard)
	blocks  []csrBlock
	width   int64   // Σ w(R_j) over the segment's sets
	cursor  []int32 // scratch for CSR construction, len = n

	// Spill tier. Without a spill budget all three stay zero and the arena
	// is exactly the flat buf above: tailSet = 0, tailBase = 0, no extents.
	exts     []arenaExtent // frozen arena extents preceding buf, ascending
	tailSet  int           // local index of the first set stored in buf
	tailBase int64         // absolute item offset of buf[0]
	spill    *spillState   // shared spill tier; nil ⇒ spilling disabled
}

// arenaExtent is a frozen, immutable slice of the arena: local sets
// [setFrom, setTo) whose items span absolute offsets [base, end). data is
// either the original heap slice (resident) or an alias of the spill file's
// shared mapping (mapped != nil). Extents are created by seal() only under
// spill pressure, so the single-slice arena fast path is untouched when
// spilling is off.
type arenaExtent struct {
	setFrom, setTo int
	base, end      int64
	data           []uint32
	mapped         *spillMapping
	lastUse        atomic.Uint64 // spill-LRU recency
}

func newSegment(n int) *segment {
	return &segment{n: n, offsets: []int64{0}}
}

// nsets returns the number of sets stored in the segment.
func (sg *segment) nsets() int { return len(sg.offsets) - 1 }

// setAt returns local set i as a sub-slice of the arena: the active tail for
// recent sets, or the frozen extent holding i (which may alias the spill
// file — reading it is the transparent fault-in path).
func (sg *segment) setAt(i int) []uint32 {
	if i >= sg.tailSet {
		return sg.buf[sg.offsets[i]-sg.tailBase : sg.offsets[i+1]-sg.tailBase]
	}
	e := sg.extentAt(i)
	return e.data[sg.offsets[i]-e.base : sg.offsets[i+1]-e.base]
}

// extentAt locates the frozen extent holding local set i and stamps its LRU
// recency (resident extents only — spilled ones have nothing left to evict).
// Safe under concurrent reads: extents are immutable and the stamp is
// atomic.
func (sg *segment) extentAt(i int) *arenaExtent {
	lo, hi := 0, len(sg.exts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sg.exts[mid].setTo <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e := &sg.exts[lo]
	if e.mapped == nil && sg.spill != nil {
		e.lastUse.Store(sg.spill.tick())
	}
	return e
}

// tailItems returns the arena entries of local sets [from, to), which must
// lie entirely within the active tail. Index builds always do: the merge
// guard in appendIndexBlock never reaches behind tailSet.
func (sg *segment) tailItems(from, to int) []uint32 {
	return sg.buf[sg.offsets[from]-sg.tailBase : sg.offsets[to]-sg.tailBase]
}

// items returns the total arena entries across extents and tail.
func (sg *segment) items() int64 { return sg.offsets[sg.nsets()] }

// seal freezes the active tail into an immutable extent — making it a spill
// candidate — and starts an empty tail after it. Called only by the spill
// enforcement loop, under the store's mutation exclusivity; the sealed
// extent is stamped as most recently used, since it holds the newest sets.
func (sg *segment) seal() {
	if len(sg.buf) == 0 {
		return
	}
	sg.exts = append(sg.exts, arenaExtent{
		setFrom: sg.tailSet, setTo: sg.nsets(),
		base: sg.tailBase, end: sg.tailBase + int64(len(sg.buf)),
		data: sg.buf,
	})
	if sg.spill != nil {
		sg.exts[len(sg.exts)-1].lastUse.Store(sg.spill.tick())
	}
	sg.tailSet = sg.nsets()
	sg.tailBase += int64(len(sg.buf))
	sg.buf = nil
}

// gid maps a local set index to its global stream id.
func (sg *segment) gid(i int) int {
	if sg.gids == nil {
		return i
	}
	return int(sg.gids[i])
}

// residentBytes reports the heap memory the segment holds: the tail arena,
// offset/gid/cursor tables, resident extents and index blocks, plus the
// per-block and per-extent metadata records themselves (capacities, since
// grown backing arrays are what the process actually retains). Units that
// alias the spill file's mapping are excluded — spilledBytes counts those.
func (sg *segment) residentBytes() int64 {
	b := int64(cap(sg.buf))*4 + int64(cap(sg.offsets))*8 +
		int64(cap(sg.gids))*4 + int64(cap(sg.cursor))*4 +
		int64(cap(sg.blocks))*int64(unsafe.Sizeof(csrBlock{})) +
		int64(cap(sg.exts))*int64(unsafe.Sizeof(arenaExtent{}))
	for i := range sg.blocks {
		blk := &sg.blocks[i]
		if blk.spilled == nil || spillMappedResident {
			b += int64(cap(blk.starts))*4 + int64(cap(blk.ids))*4
		}
	}
	for i := range sg.exts {
		e := &sg.exts[i]
		if e.mapped == nil || spillMappedResident {
			b += int64(cap(e.data)) * 4
		}
	}
	return b
}

// spilledBytes reports the RR data aliasing the spill file's shared mapping
// (zero on platforms whose fallback keeps "mapped" payloads on the heap).
func (sg *segment) spilledBytes() int64 {
	if spillMappedResident {
		return 0
	}
	var b int64
	for i := range sg.blocks {
		blk := &sg.blocks[i]
		if blk.spilled != nil {
			b += int64(len(blk.starts))*4 + int64(len(blk.ids))*4
		}
	}
	for i := range sg.exts {
		e := &sg.exts[i]
		if e.mapped != nil {
			b += int64(len(e.data)) * 4
		}
	}
	return b
}

type chunkResult struct {
	buf     []uint32
	offsets []int32 // len = sets in chunk + 1
	width   int64
}

// sampleChunks generates the RR sets with global ids [gfrom, gto) in
// parallel chunks. RR set i is always produced by the PRNG stream
// (seed, i), so the output is bit-identical for any worker count — and for
// any partition of the id space across segments, which is what makes every
// shard count hold the same sample stream.
func sampleChunks(s *Sampler, seed uint64, gfrom, gto, workers int) []chunkResult {
	results, _ := sampleChunksCtx(context.Background(), s, seed, gfrom, gto, workers)
	return results
}

// sampleChunksCtx is sampleChunks with cooperative cancellation: workers
// check ctx between chunk claims and stop claiming once it fires. On
// cancellation all sampled chunks are discarded and ctx.Err() is returned —
// the caller appends nothing, so an abandoned top-up can never leave a
// half-grown store. Chunks are the granularity: a fired ctx waits at most
// one chunk's sampling time per worker.
func sampleChunksCtx(ctx context.Context, s *Sampler, seed uint64, gfrom, gto, workers int) ([]chunkResult, error) {
	count := gto - gfrom
	nChunks := (count + chunkSize - 1) / chunkSize
	results := make([]chunkResult, nChunks)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s.NewState()
			var r rng.Source // re-seeded per RR set: no per-set allocation
			for {
				if ctx.Err() != nil {
					return
				}
				ci := int(atomic.AddInt64(&next, 1)) - 1
				if ci >= nChunks {
					return
				}
				lo := gfrom + ci*chunkSize
				hi := lo + chunkSize
				if hi > gto {
					hi = gto
				}
				res := chunkResult{offsets: make([]int32, 1, hi-lo+1)}
				buf := make([]uint32, 0, 4*(hi-lo))
				for id := lo; id < hi; id++ {
					r.SeedStream(seed, uint64(id))
					var w int64
					buf, _, w = s.AppendSample(&r, st, buf)
					res.offsets = append(res.offsets, int32(len(buf)))
					res.width += w
				}
				res.buf = buf
				results[ci] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// appendResults merges chunk results into the arena in chunk order (global
// ids are deterministic). One arena grow and one offset-table grow cover
// the whole batch.
func (sg *segment) appendResults(results []chunkResult) {
	var totalItems, totalSets int
	for ci := range results {
		totalItems += len(results[ci].buf)
		totalSets += len(results[ci].offsets) - 1
	}
	sg.buf = slices.Grow(sg.buf, totalItems)
	sg.offsets = slices.Grow(sg.offsets, totalSets)
	for ci := range results {
		res := &results[ci]
		off := sg.tailBase + int64(len(sg.buf))
		sg.buf = append(sg.buf, res.buf...)
		for j := 1; j < len(res.offsets); j++ {
			sg.offsets = append(sg.offsets, off+int64(res.offsets[j]))
		}
		sg.width += res.width
	}
}

// appendIndexBlock indexes local sets [from, to) into a new CSR block.
// Small trailing blocks are first absorbed (size-tiered, Bentley–Saxe
// style): any block no larger than the batch being appended is merged into
// it, so pathological many-small-Generate loops still leave O(log |R|)
// blocks and every posting is re-placed O(log |R|) times in total, while a
// doubling schedule keeps exactly one block per call. The build itself is
// O(items + n): a counting pass, a prefix sum, and a placement pass in
// ascending set order (which makes every per-node run ascending by
// construction — ascending local order is ascending global order, since a
// segment's global ids are strictly increasing in local index). Large
// batches build in parallel (see buildBlockParallel) with a layout
// bit-identical to the serial pass for any worker count.
func (sg *segment) appendIndexBlock(from, to, workers int) {
	newItems := int(sg.offsets[to] - sg.offsets[from])
	for len(sg.blocks) > 0 {
		last := &sg.blocks[len(sg.blocks)-1]
		// Spilled blocks are immutable, and blocks over frozen extents are
		// outside the tail a rebuild would slice — merging stops at either.
		if last.spilled != nil || last.lfrom < sg.tailSet || len(last.ids) > newItems {
			break
		}
		newItems += len(last.ids)
		from = last.lfrom
		sg.blocks = sg.blocks[:len(sg.blocks)-1]
	}
	n := sg.n
	starts := make([]int32, n+1)
	ids := make([]int32, newItems)
	if max := newItems / indexItemsPerWorker; workers > max {
		workers = max
	}
	// The parallel build's counting scratch is workers·n int32s; keep that
	// proportional to the block being indexed, or a huge-graph/small-block
	// build would pay O(cores·n) transient memory for little speedup.
	if n > 0 {
		if max := 2 * newItems / n; workers > max {
			workers = max
		}
	}
	if workers > 1 {
		sg.buildBlockParallel(from, to, starts, ids, workers)
	} else {
		sg.buildBlockSerial(from, to, starts, ids)
	}
	sg.blocks = append(sg.blocks, csrBlock{
		from: sg.gid(from), to: sg.gid(to-1) + 1,
		lfrom: from, lto: to,
		starts: starts, ids: ids,
	})
}

// buildBlockSerial is the single-threaded CSR build: count, prefix-sum,
// place. It reuses the segment's cursor scratch.
func (sg *segment) buildBlockSerial(from, to int, starts, ids []int32) {
	n := sg.n
	for _, v := range sg.tailItems(from, to) {
		starts[v+1]++
	}
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
	}
	if cap(sg.cursor) < n {
		sg.cursor = make([]int32, n)
	}
	cursor := sg.cursor[:n]
	copy(cursor, starts[:n])
	for i := from; i < to; i++ {
		id := int32(sg.gid(i))
		for _, v := range sg.setAt(i) {
			ids[cursor[v]] = id
			cursor[v]++
		}
	}
}

// buildBlockParallel builds the same CSR layout with per-worker passes over
// contiguous set ranges, merged by prefix sum:
//
//  1. split [from, to) into ranges balanced by item count;
//  2. counting pass — worker w histograms its range into counts[w];
//  3. prefix-sum merge — one O(n·workers) serial sweep turns the counts
//     into starts plus per-worker placement cursors (worker w's postings
//     for node v begin at starts[v] + Σ_{w'<w} counts[w'][v]);
//  4. placement pass — each worker writes its range into its disjoint
//     cursor windows.
//
// Because the ranges partition [from, to) in ascending set order, every
// per-node run comes out ascending with postings at exactly the offsets the
// serial pass produces — the block is bit-identical for any worker count.
func (sg *segment) buildBlockParallel(from, to int, starts, ids []int32, workers int) {
	n := sg.n
	base := sg.offsets[from]
	items := sg.offsets[to] - base
	bounds := make([]int, workers+1)
	bounds[0] = from
	for w := 1; w < workers; w++ {
		target := base + items*int64(w)/int64(workers)
		// First set index whose start offset reaches the target split point.
		bounds[w] = from + sort.Search(to-from, func(i int) bool {
			return sg.offsets[from+i] >= target
		})
	}
	bounds[workers] = to

	countsBuf := make([]int32, workers*n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts := countsBuf[w*n : (w+1)*n]
			for _, v := range sg.tailItems(bounds[w], bounds[w+1]) {
				counts[v]++
			}
		}(w)
	}
	wg.Wait()

	for v := 0; v < n; v++ {
		run := starts[v]
		for w := 0; w < workers; w++ {
			cnt := countsBuf[w*n+v]
			countsBuf[w*n+v] = run
			run += cnt
		}
		starts[v+1] = run
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cursor := countsBuf[w*n : (w+1)*n]
			for i := bounds[w]; i < bounds[w+1]; i++ {
				id := int32(sg.gid(i))
				for _, v := range sg.setAt(i) {
					ids[cursor[v]] = id
					cursor[v]++
				}
			}
		}(w)
	}
	wg.Wait()
}

// Postings iterates over the RR sets containing a node as contiguous
// ascending runs (one per CSR block). Obtain one via PostingsUpto or
// PostingsRange on a Store. Within every run the global ids are strictly
// ascending and each id appears exactly once across the whole iteration;
// a one-shard store's runs are additionally ascending across run
// boundaries, while several shards yield each shard's runs in turn (still
// disjoint, but interleaved in global id across shards). No consumer of
// the Store interface may rely on cross-run ordering.
type Postings struct {
	pre    [][]int32   // pre-fetched runs (remote shards), drained first
	blocks []csrBlock  // blocks of the segment currently being walked
	more   []*segment  // remaining segments
	sp     *spillState // non-nil ⇒ stamp resident blocks' LRU recency
	v      uint32
	from   int
	upto   int
	bi     int
}

// Next returns the next non-empty ascending run of global set ids, or false
// when the iteration is exhausted. Runs are sub-slices of the index blocks —
// no allocation.
func (p *Postings) Next() ([]int32, bool) {
	for {
		if len(p.pre) > 0 {
			run := p.pre[0]
			p.pre = p.pre[1:]
			if len(run) > 0 {
				return run, true
			}
			continue
		}
		for p.bi < len(p.blocks) {
			b := &p.blocks[p.bi]
			if b.from >= p.upto {
				// Blocks ascend by their global lower bound, so the rest of
				// this segment is out of range.
				p.bi = len(p.blocks)
				break
			}
			p.bi++
			if b.to <= p.from {
				continue
			}
			if p.sp != nil && b.spilled == nil {
				b.lastUse.Store(p.sp.tick())
			}
			run := b.ids[b.starts[p.v]:b.starts[p.v+1]]
			if b.from < p.from {
				k := sort.Search(len(run), func(i int) bool { return int(run[i]) >= p.from })
				run = run[k:]
			}
			if b.to > p.upto {
				k := sort.Search(len(run), func(i int) bool { return int(run[i]) >= p.upto })
				run = run[:k]
			}
			if len(run) > 0 {
				return run, true
			}
		}
		if len(p.more) == 0 {
			return nil, false
		}
		p.blocks = p.more[0].blocks
		p.more = p.more[1:]
		p.bi = 0
	}
}
