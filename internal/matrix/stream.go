package matrix

import (
	"fmt"
	"sync"
)

// The incremental window compactor: the bounded-memory counterpart of
// building one COO per window over a fully materialized trace. A
// WindowCompactor holds one COO shard per aggregation window;
// producers hand it batches of triples concurrently in any order, and
// each window is compacted to CSR — and its builder storage released
// — the moment the caller knows no more triples can reach it (Seal).
// Because compaction counting-sorts triples by coordinate and sums
// duplicates as integers, the sealed CSR is a pure function of the
// window's triple multiset: identical for any arrival order, any
// batching, any worker count, any interleaving. That
// multiset-determinism is what lets the netsim streaming engine keep
// the batch engine's bit-identical-output contract while finalizing
// windows mid-run.

// WindowCompactor accumulates per-window batches of triples into
// per-window COO shards and compacts each shard to CSR on Seal.
// Append is safe for concurrent use (one per-window lock per call, so
// a producer that buffers a whole chunk's triples pays one lock per
// window it touched, not one per triple); Seal for a given window must
// not race with Appends to that same window — the caller's sealing
// discipline (all contributing producers finished) is exactly what
// makes that safe.
type WindowCompactor struct {
	rows, cols int
	shards     []*COO
	locks      []sync.Mutex
	events     []int
	extra      []int
	sealed     []bool
	// arena, when non-nil, supplies each window shard's builder
	// storage (sized by hint triples) and receives it back on Seal —
	// the sealed CSR itself is always freshly allocated and belongs
	// to the consumer.
	arena *Arena
	hint  int
}

// NewWindowCompactorArena builds a compactor for `windows`
// aggregation intervals over rows×cols matrices, with the per-window
// builder storage pooled in an arena. hint pre-sizes each window's
// slab request (typically the request's event budget divided by the
// window count); a nil arena allocates fresh and makes hint moot.
func NewWindowCompactorArena(a *Arena, rows, cols, windows, hint int) *WindowCompactor {
	if windows < 0 {
		panic(fmt.Sprintf("matrix: negative window count %d", windows))
	}
	return &WindowCompactor{
		rows:   rows,
		cols:   cols,
		shards: make([]*COO, windows),
		locks:  make([]sync.Mutex, windows),
		events: make([]int, windows),
		extra:  make([]int, windows),
		sealed: make([]bool, windows),
		arena:  a,
		hint:   hint,
	}
}

// Windows returns the number of aggregation intervals.
func (wc *WindowCompactor) Windows() int { return len(wc.shards) }

// Append folds one producer's batch into window w under a single
// lock: the triples es (copied, so the caller may reuse the slice),
// plus window bookkeeping that is not matrix data — events counts
// observations, extra accumulates a caller-defined tally (the netsim
// engine counts dropped packet volume there). Seal returns both
// tallies. The shard is allocated lazily, so untouched windows cost
// nothing until sealed.
func (wc *WindowCompactor) Append(w int, es []Entry, events, extra int) {
	wc.locks[w].Lock()
	defer wc.locks[w].Unlock()
	if wc.sealed[w] {
		panic(fmt.Sprintf("matrix: Append to sealed window %d", w))
	}
	if len(es) > 0 {
		if wc.shards[w] == nil {
			wc.shards[w] = NewCOOIn(wc.arena, wc.rows, wc.cols, max(wc.hint, len(es)))
		}
		wc.shards[w].AddEntries(es)
	}
	wc.events[w] += events
	wc.extra[w] += extra
}

// Seal compacts window w to CSR, releases its builder storage (into
// the arena, when the compactor has one), and returns the matrix
// with the window's appended tallies. Sealing twice panics: a sealed
// window's data is gone, and handing out an empty matrix in its
// place would silently corrupt a stream.
func (wc *WindowCompactor) Seal(w int) (m *CSR, events, extra int) {
	wc.locks[w].Lock()
	defer wc.locks[w].Unlock()
	if wc.sealed[w] {
		panic(fmt.Sprintf("matrix: window %d sealed twice", w))
	}
	wc.sealed[w] = true
	shard := wc.shards[w]
	wc.shards[w] = nil
	if shard == nil {
		shard = NewCOO(wc.rows, wc.cols)
	}
	csr := shard.ToCSR()
	shard.Release()
	return csr, wc.events[w], wc.extra[w]
}

// PendingNNZ reports the total un-compacted triples currently
// buffered across unsealed windows: the compactor's live builder
// footprint, exposed so the streaming benchmarks can show memory
// staying bounded by the open-window set rather than the run length.
func (wc *WindowCompactor) PendingNNZ() int {
	total := 0
	for w := range wc.shards {
		wc.locks[w].Lock()
		if wc.shards[w] != nil {
			total += wc.shards[w].Len()
		}
		wc.locks[w].Unlock()
	}
	return total
}
