package netsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// The sparse trace window engine. The historical dense Windows
// re-scanned the whole trace once per window (O(W·E)) and
// materialized an n² Dense for every interval; WindowsCSRArena folds
// the trace into per-window COO shards in a single pass (O(E)) and
// compacts each shard to CSR in parallel by a counting sort, so the
// spatial-temporal view costs O(E + W·n) no matter how the events
// fall across the windows. Windows (events.go) densifies this result.

// SparseWindow is one aggregation interval with its traffic matrix
// in CSR form.
type SparseWindow struct {
	// Start and End bound the interval [Start,End); the final window
	// of a run additionally covers an event at exactly the horizon.
	Start, End float64
	// Matrix is the aggregated traffic, never nil (an empty window
	// holds an empty CSR).
	Matrix *matrix.CSR
	// Events is the number of events in the window, including events
	// naming hosts outside the network axis.
	Events int
	// Dropped is the packet volume of the window's events that name
	// hosts outside the network axis and so appear nowhere in Matrix.
	Dropped int
}

// windowAcc is one window's accumulation state during the fold.
type windowAcc struct {
	coo     *matrix.COO
	events  int
	dropped int
}

// windowIndex assigns a timestamp to its window in [0, nw), settling
// representability edge cases by direct comparison against the
// float64(k)*windowLen boundaries. Windows always span whole
// windowLen intervals: when the horizon cuts the final window short,
// that window still covers its full [start, start+len) range (the
// historical dense behaviour), and it additionally covers an event
// at exactly the horizon — the final-boundary fix. ok is false for
// events before 0 or beyond the last window's end.
func windowIndex(t, windowLen, horizon float64, nw int) (int, bool) {
	if t < 0 {
		return 0, false
	}
	if limit := float64(nw) * windowLen; t >= limit && t != horizon {
		return 0, false
	}
	w := int(t / windowLen)
	if w >= nw {
		w = nw - 1
	}
	for w+1 < nw && t >= float64(w+1)*windowLen {
		w++
	}
	for w > 0 && t < float64(w)*windowLen {
		w--
	}
	return w, true
}

// WindowsCSRArena splits the trace into ⌈horizon/windowLen⌉
// fixed-length aggregation windows starting at 0, without ever
// materializing a dense matrix: one linear pass assigns each event to
// its window's COO shard, then the shards compact to CSR
// concurrently. A horizon of 0 uses the trace duration rounded up to
// a whole window. Every window spans its full windowLen (a horizon
// mid-window keeps the final window's complete range), and an event
// at exactly the horizon lands in the final window; only events
// beyond the last window's end are excluded. The trace does not need
// to be sorted — window membership depends only on each event's own
// timestamp. The fold checks ctx every few thousand events and the
// compaction loop checks it between windows, so a cancelled request
// stops splitting a large trace.
//
// Each window's COO shard is pooled in the arena (nil allocates
// fresh — identical windows either way). Shards are pre-sized to the
// trace's per-window average and release into the arena as soon as
// they compact; the returned windows' CSR arrays are always freshly
// allocated, never pooled.
func (t Trace) WindowsCSRArena(ctx context.Context, a *Arena, net *Network, windowLen, horizon float64) ([]SparseWindow, error) {
	if net == nil {
		return nil, fmt.Errorf("netsim: nil network")
	}
	if windowLen <= 0 {
		return nil, fmt.Errorf("netsim: window length must be positive, got %g", windowLen)
	}
	if horizon <= 0 {
		horizon = t.Duration()
		if horizon == 0 {
			horizon = windowLen
		}
	}
	nw := int(math.Ceil(horizon / windowLen))
	if nw < 1 {
		nw = 1
	}

	// Single pass: fold every event into its window's shard.
	n := net.Len()
	hint := divHint(len(t), nw)
	accs := make([]windowAcc, nw)
	for ei, e := range t {
		if ei&0xfff == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		w, ok := windowIndex(e.Time, windowLen, horizon, nw)
		if !ok {
			continue
		}
		acc := &accs[w]
		acc.events++
		i, iok := net.Index(e.Src)
		j, jok := net.Index(e.Dst)
		if !iok || !jok {
			acc.dropped += e.Packets
			continue
		}
		if acc.coo == nil {
			acc.coo = matrix.NewCOOIn(a.Matrix(), n, n, hint)
		}
		acc.coo.Add(i, j, e.Packets)
	}

	// Compact each window's shard to CSR; windows are independent, so
	// the counting sorts spread across all CPUs.
	out := make([]SparseWindow, nw)
	workers := runtime.NumCPU()
	if workers > nw {
		workers = nw
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= nw {
					return
				}
				acc := accs[k]
				coo := acc.coo
				if coo == nil {
					coo = matrix.NewCOO(n, n)
				}
				start := float64(k) * windowLen
				csr := coo.ToCSR()
				// The CSR copied the triples out; the shard's slab is
				// unreachable now.
				coo.Release()
				out[k] = SparseWindow{
					Start:   start,
					End:     start + windowLen,
					Matrix:  csr,
					Events:  acc.events,
					Dropped: acc.dropped,
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
