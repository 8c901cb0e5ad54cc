package matrix

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
)

// This file is the aggregation hot path for the concurrent scenario
// engine: netsim's generator shards an event stream across workers,
// each accumulating into a private COO, and the shards meet here.
// Because COO addition is commutative and associative (duplicates sum
// on compaction), the merged matrix is identical no matter how the
// events were partitioned — the property netsim's determinism tests
// lean on.

// CompactParallel sorts and deduplicates the triples like Compact,
// but splits the sort across up to workers goroutines: each segment
// is counting-sorted independently and the sorted runs are then
// merged in one k-way pass. workers ≤ 1 (or a small matrix) falls
// back to the serial Compact. It returns the receiver for chaining.
func (c *COO) CompactParallel(workers int) *COO {
	const minSegment = 1 << 12
	if c.compacted || workers <= 1 || len(c.entries) < 2*minSegment {
		return c.Compact()
	}
	if max := len(c.entries) / minSegment; workers > max {
		workers = max
	}
	seg := (len(c.entries) + workers - 1) / workers
	runs := make([][]Entry, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < len(c.entries); lo += seg {
		hi := lo + seg
		if hi > len(c.entries) {
			hi = len(c.entries)
		}
		run := c.entries[lo:hi]
		runs = append(runs, run)
		wg.Add(1)
		go func(run []Entry) {
			defer wg.Done()
			countSort(c.arena, run, c.rows, c.cols)
		}(run)
	}
	wg.Wait()
	c.entries = mergeRuns(runs)
	c.compacted = true
	return c
}

// entryLess is the row-major triple order shared by every merge.
func entryLess(a, b Entry) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// runHeap is a min-heap over the heads of sorted entry runs.
type runHeap struct {
	runs [][]Entry
}

func (h *runHeap) Len() int           { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool { return entryLess(h.runs[i][0], h.runs[j][0]) }
func (h *runHeap) Swap(i, j int)      { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *runHeap) Push(x interface{}) { h.runs = append(h.runs, x.([]Entry)) }
func (h *runHeap) Pop() interface{} {
	n := len(h.runs)
	r := h.runs[n-1]
	h.runs = h.runs[:n-1]
	return r
}

// mergeRuns k-way merges sorted runs into one deduplicated,
// zero-free, row-major slice. Duplicate coordinates sum.
func mergeRuns(runs [][]Entry) []Entry { return mergeRunsIn(nil, runs) }

// mergeRunsIn is mergeRuns with the output slab taken from an arena
// (nil allocates fresh). The output never aliases a run: every entry
// is copied, so the runs' own slabs may be released afterwards.
func mergeRunsIn(a *Arena, runs [][]Entry) []Entry {
	nonEmpty := runs[:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty = append(nonEmpty, r)
			total += len(r)
		}
	}
	runs = nonEmpty
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return dedupSorted(append(a.GetEntries(total), runs[0]...))
	}
	out := a.GetEntries(total)
	h := &runHeap{runs: runs}
	heap.Init(h)
	for h.Len() > 0 {
		r := h.runs[0]
		e := r[0]
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
		} else {
			out = append(out, e)
		}
		if len(r) > 1 {
			h.runs[0] = r[1:]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return dropZeros(out)
}

// dedupSorted sums duplicate coordinates in a sorted slice in place
// and drops zero-sum cells.
func dedupSorted(es []Entry) []Entry {
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return dropZeros(out)
}

// dropZeros filters zero-valued cells in place.
func dropZeros(es []Entry) []Entry {
	out := es[:0]
	for _, e := range es {
		if e.Val != 0 {
			out = append(out, e)
		}
	}
	return out
}

// MergeCOOArena combines sharded COO accumulators into one compacted
// matrix. Every part must share the same dimensions; parts may be nil
// (skipped) and are left unmodified aside from being compacted. The
// compaction of each part (a linear counting sort plus dedup) runs
// concurrently, one goroutine per shard, and the sorted shards then
// merge in a single k-way pass.
//
// Cancellation works at shard granularity: a shard whose compaction
// has not started when ctx is cancelled is skipped, and the cancelled
// merge returns the context's error instead of a partial matrix.
// Shards that were skipped keep their un-compacted triples, so a
// retry on a fresh context merges the same data.
//
// The merged output's triple storage comes from the arena (nil
// allocates fresh). The output copies every triple and never aliases
// a part's storage, so on success the caller may Release the parts;
// the parts themselves are only compacted, never released, here —
// a cancelled merge leaves them intact for a retry.
func MergeCOOArena(ctx context.Context, a *Arena, parts ...*COO) (*COO, error) {
	var live []*COO
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("matrix: MergeCOOArena of no matrices")
	}
	rows, cols := live[0].rows, live[0].cols
	for _, p := range live[1:] {
		if p.rows != rows || p.cols != cols {
			return nil, fmt.Errorf("matrix: MergeCOOArena dimension mismatch %dx%d vs %dx%d",
				rows, cols, p.rows, p.cols)
		}
	}
	var wg sync.WaitGroup
	for _, p := range live {
		wg.Add(1)
		go func(p *COO) {
			defer wg.Done()
			if ctx.Err() == nil {
				p.Compact()
			}
		}(p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runs := make([][]Entry, len(live))
	for i, p := range live {
		runs[i] = p.entries
	}
	out := NewCOO(rows, cols)
	out.arena = a
	out.entries = mergeRunsIn(a, runs)
	out.compacted = true
	return out, nil
}
