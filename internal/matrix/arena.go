package matrix

import "sync"

// The buffer arena for the generation→compact hot path. Under served
// concurrency every cold request used to allocate fresh COO builder
// slabs — per-worker shards, per-window shards, the aggregate
// builder — that die within the request: pure GC pressure at exactly
// the event volume the request budget admits. An Arena keeps that
// builder storage on explicit free-lists instead, so steady-state
// serving re-files triples into slabs recycled from earlier requests.
//
// The free-lists are explicit (not sync.Pool) on purpose: reuse is
// then deterministic — unaffected by GC timing — which is what lets
// the CI allocation-regression gate compare allocs/op across runs.
//
// Ownership rules (DESIGN.md "Arena ownership" has the full story):
//
//   - Only builder storage is ever pooled. CSR output arrays
//     (rowPtr/colIdx/vals) are always freshly allocated and owned by
//     the consumer forever — results enter the LRU cache and stream
//     frames alias them, so the arena must never see them.
//   - Put/Release is an ownership assertion: the caller proves the
//     slab is unreachable (nothing cached, sealed, or in flight
//     aliases it). Using a COO after Release panics.
//   - A nil *Arena is valid everywhere and means "allocate fresh":
//     the pooled and pool-free paths are bit-identical by
//     construction, pinned by the pooled-vs-reference parity suite.

// PoolStats counts one free-list's traffic. Hits/Gets is the steady-
// state reuse rate; Retained bounds the pooled footprint.
type PoolStats struct {
	// Gets counts slab requests; Hits the ones served from the pool.
	Gets, Hits uint64
	// Puts counts slabs returned; Drops the ones evicted to stay
	// within the retention bound.
	Puts, Drops uint64
	// Retained is the total element count currently pooled, across
	// Slabs free slabs.
	Retained, Slabs int
}

// SlabPool is an explicit free-list of zero-length slices, ordered by
// capacity. Safe for concurrent use. The zero value is NOT usable;
// build with NewSlabPool. A nil pool is valid and always allocates.
type SlabPool[T any] struct {
	mu sync.Mutex
	// slabs is kept sorted by ascending capacity so Get can take the
	// smallest slab that fits (best fit keeps big slabs for big asks).
	slabs    [][]T
	retained int
	maxElems int
	stats    PoolStats
}

// NewSlabPool builds a pool retaining at most maxElems elements of
// free storage; beyond that, returned slabs evict smallest-first.
func NewSlabPool[T any](maxElems int) *SlabPool[T] {
	return &SlabPool[T]{maxElems: maxElems}
}

// Get returns a zero-length slice for the caller to append into:
// the smallest pooled slab whose capacity is at least c when one
// exists, otherwise a fresh slab with ~25% headroom over c (the
// headroom is what lets slightly-varying request shapes keep hitting
// the pool). c ≤ 0 takes the smallest pooled slab of any size, or a
// small fresh one. nil-safe.
func (p *SlabPool[T]) Get(c int) []T {
	if c < 0 {
		c = 0
	}
	if p == nil {
		return make([]T, 0, freshCap(c))
	}
	p.mu.Lock()
	p.stats.Gets++
	// Best fit: first slab (ascending capacity) with cap ≥ c.
	for i, s := range p.slabs {
		if cap(s) >= c {
			p.slabs = append(p.slabs[:i], p.slabs[i+1:]...)
			p.retained -= cap(s)
			p.stats.Hits++
			p.mu.Unlock()
			return s[:0]
		}
	}
	p.mu.Unlock()
	return make([]T, 0, freshCap(c))
}

// freshCap sizes a miss allocation: 25% headroom, floor of 64.
func freshCap(c int) int {
	if c < 64 {
		return 64
	}
	return c + c/4
}

// Put returns a slab to the pool. Slabs smaller than the floor are
// not worth refiling; retention beyond the bound evicts the smallest
// slabs first (they are the cheapest to reallocate). nil-safe.
func (p *SlabPool[T]) Put(s []T) {
	if p == nil || cap(s) < 64 {
		return
	}
	s = s[:0]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if cap(s) > p.maxElems {
		p.stats.Drops++
		return
	}
	// Insert keeping ascending capacity order.
	i := 0
	for i < len(p.slabs) && cap(p.slabs[i]) < cap(s) {
		i++
	}
	p.slabs = append(p.slabs, nil)
	copy(p.slabs[i+1:], p.slabs[i:])
	p.slabs[i] = s
	p.retained += cap(s)
	for p.retained > p.maxElems && len(p.slabs) > 0 {
		drop := p.slabs[0]
		p.slabs = append(p.slabs[:0], p.slabs[1:]...)
		p.retained -= cap(drop)
		p.stats.Drops++
	}
}

// Stats snapshots the pool counters. nil-safe.
func (p *SlabPool[T]) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Retained = p.retained
	st.Slabs = len(p.slabs)
	return st
}

// DefaultArenaElems bounds an Arena's retained triple storage. A
// maxed-out request budget folds ~1e8 events; retaining 8M triples
// (~192 MiB) covers the documented serving workloads' steady state
// while keeping one process's pooled footprint firmly bounded.
const DefaultArenaElems = 8 << 20

// Arena pools the sparse builders' backing storage: the []Entry
// slabs behind COO accumulators, plus the scratch triples and count
// arrays compaction sorts with. One Arena per service instance,
// shared by every request; all methods are safe for concurrent use
// and all are nil-safe (a nil Arena allocates fresh).
type Arena struct {
	entries *SlabPool[Entry]
	counts  *SlabPool[int]
}

// NewArena builds an arena with the default retention bound.
func NewArena() *Arena { return NewArenaSized(DefaultArenaElems) }

// NewArenaSized builds an arena retaining at most maxElems pooled
// triples.
func NewArenaSized(maxElems int) *Arena {
	return &Arena{entries: NewSlabPool[Entry](maxElems), counts: NewSlabPool[int](maxElems)}
}

// GetEntries takes a zero-length triple slab with capacity ≥ c
// (best effort; see SlabPool.Get). nil-safe.
func (a *Arena) GetEntries(c int) []Entry {
	if a == nil {
		return make([]Entry, 0, freshCap(c))
	}
	return a.entries.Get(c)
}

// PutEntries files a triple slab back. The caller asserts the slab
// is unreachable — never Put storage aliased by a cached or returned
// matrix. nil-safe.
func (a *Arena) PutEntries(s []Entry) {
	if a == nil {
		return
	}
	a.entries.Put(s)
}

// scratchEntries takes an n-triple scratch slab (contents
// unspecified) for the caller to hand back with PutEntries. A nil
// arena allocates exactly n.
func (a *Arena) scratchEntries(n int) []Entry {
	if a == nil {
		return make([]Entry, n)
	}
	return a.entries.Get(n)[:n]
}

// zeroCounts takes an n-element zeroed count array for the caller to
// hand back with putCounts. A nil arena allocates exactly n.
func (a *Arena) zeroCounts(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	c := a.counts.Get(n)[:n]
	clear(c)
	return c
}

// putCounts files a count array back. nil-safe.
func (a *Arena) putCounts(c []int) {
	if a == nil {
		return
	}
	a.counts.Put(c)
}

// Stats snapshots the arena's entry-pool counters. nil-safe.
func (a *Arena) Stats() PoolStats {
	if a == nil {
		return PoolStats{}
	}
	return a.entries.Stats()
}
