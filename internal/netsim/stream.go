package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// The sparse generation engine: one event fold behind both CSR entry
// points. GenerateCSRArena runs it with no windows; StreamCSRArena
// runs it with fixed-length aggregation windows and bounds builder
// memory by chunk and open-window size instead of trace size (the
// sealed windows' compacted CSRs stay referenced until the aggregate
// is summed from them). Each chunk's windowed events go to an
// incremental per-window compactor (matrix.WindowCompactor), which
// finalizes each window — sealed CSR, in order — as soon as every
// chunk that could touch it has finished, using the ChunkSpanner
// time-locality contract. Time-to-first-window drops from O(run) to
// O(window) for time-local scenarios. In-axis events outside every
// window (all of them, when there are none) go to the running
// worker's private remainder COO.
//
// Determinism survives because a window's CSR is a pure function of
// the event multiset that lands in it: chunks derive all randomness
// from (seed, chunk), window membership depends only on each event's
// own timestamp, and COO compaction sorts by coordinate and sums
// integers — commutative — so any worker count, any arrival order and
// any batching compact to bit-identical windows, and the aggregate
// summed from them and the remainders is bit-identical too. The
// stream-vs-trace parity suite (stream_test.go) pins this across the
// catalog, composed specs, and workers 1/4/16.

// windowBuf is one chunk's contribution to one window, buffered by
// the worker running the chunk and handed to the compactor whole.
type windowBuf struct {
	entries []matrix.Entry
	events  int
	dropped int
}

// GenerateCSRArena folds the scenario straight into its aggregate
// traffic matrix, skipping trace materialization: it is
// StreamCSRArena's fold with no windows, so each worker sums its
// chunks' in-axis events into a private COO, the workers' COOs
// compact concurrently, and one counting sort sums them. No dense n²
// materialization happens anywhere between event emission and the
// analysis layer, which consumes the CSR through the matrix.Matrix
// accessor interface. Events naming hosts outside the network axis
// are counted in Stats.Dropped, mirroring Trace.Matrix. Every
// intermediate is pooled in the arena (nil allocates fresh —
// identical output either way); the returned CSR's arrays are always
// freshly allocated and permanently the caller's, so it is safe to
// cache or stream.
func GenerateCSRArena(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params) (*matrix.CSR, Stats, error) {
	return fold(ctx, a, s, net, seed, workers, p, 0, 0, nil)
}

// StreamCSRArena generates the scenario and streams its fixed-length
// aggregation windows through onWindow, in order, each finalized —
// compacted to CSR, builder storage released — the moment every
// chunk whose time span overlaps it has completed. The sealed windows
// are bit-identical to Trace.WindowsCSRArena over the batch trace
// with the same windowLen and horizon, for any worker count. A
// horizon ≤ 0 uses the configured duration. The whole-run aggregate
// is summed from the sealed windows plus the in-axis events that fall
// outside every window (a horizon shorter than the run), so it is
// bit-identical to GenerateCSRArena's. It is returned as CSR with the
// run stats once the stream completes. An onWindow error or a
// cancelled ctx stops generation at chunk granularity and is
// returned; windows already delivered stay delivered.
//
// No lock is taken per event. Each worker folds a chunk's events
// into chunk-local per-window buffers, reused across its chunks, and
// hands each non-empty buffer to the compactor with one locked call
// when the chunk ends, before releasing the chunk's windows.
//
// The window compactor's per-window shards, the workers' chunk
// buffers and remainders, and the aggregate's builder are pooled in
// the arena (nil allocates fresh — bit-identical windows either way).
// Window builders recycle at Seal, chunk buffers, remainders and the
// aggregate builder when the run ends; the sealed window CSRs and
// the returned aggregate CSR are always freshly allocated and the
// consumer's forever (the run only reads the sealed windows back to
// sum the aggregate). On an error mid-run, builders of never-sealed
// windows are left to the GC rather than reclaimed — safe, since
// pooling is only an optimization and error paths are off the
// steady-state loop.
func StreamCSRArena(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params, windowLen, horizon float64, onWindow func(index int, w SparseWindow) error) (*matrix.CSR, Stats, error) {
	if windowLen <= 0 {
		return nil, Stats{}, fmt.Errorf("netsim: window length must be positive, got %g", windowLen)
	}
	return fold(ctx, a, s, net, seed, workers, p, windowLen, horizon, onWindow)
}

// fold runs the scenario's chunks on the worker pool and sums every
// event into the aggregate CSR it returns with the run stats. A
// windowLen > 0 also seals ⌈horizon/windowLen⌉ windows through
// onWindow, as StreamCSRArena documents; windowLen 0 runs none, so
// every in-axis event lands in a worker's remainder.
func fold(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params, windowLen, horizon float64, onWindow func(index int, w SparseWindow) error) (*matrix.CSR, Stats, error) {
	chunks, workers, pd, err := planRun(s, net, workers, p)
	if err != nil {
		return nil, Stats{}, err
	}
	nw := 0
	if windowLen > 0 {
		if horizon <= 0 {
			horizon = pd.Duration
		}
		nw = max(1, int(math.Ceil(horizon/windowLen)))
	}
	n := net.Len()

	// Resolve every chunk's conservative window range once, and count
	// how many chunks can touch each window (difference array keeps
	// this O(chunks + windows)). pending[w] hitting zero is the signal
	// that window w is sealed. With no windows every range is the
	// empty [0, -1].
	lo := make([]int32, chunks)
	hi := make([]int32, chunks)
	diff := make([]int32, nw+1)
	for k := 0; k < chunks; k++ {
		wlo, whi := 0, nw-1
		if nw > 0 {
			start, end := chunkSpan(s, net, pd, k)
			if w, ok := windowIndex(start, windowLen, horizon, nw); ok {
				wlo = w
			}
			if w, ok := windowIndex(end, windowLen, horizon, nw); ok {
				whi = w
			}
			whi = max(whi, wlo)
			diff[wlo]++
			diff[whi+1]--
		}
		lo[k], hi[k] = int32(wlo), int32(whi)
	}
	pending := make([]atomic.Int32, nw)
	run := int32(0)
	for w := 0; w < nw; w++ {
		run += diff[w]
		pending[w].Store(run)
	}

	budget := eventBudget(pd)
	compactor := matrix.NewWindowCompactorArena(a.Matrix(), n, n, nw, divHint(budget, nw))
	// bufs[w] are worker w's chunk-local window buffers: slot i holds
	// the current chunk's contribution to window lo[k]+i. rest[w] holds
	// worker w's in-axis events outside every window: the whole run
	// without windows, so only then is it pre-sized. A served windowed
	// run's horizon is its duration, which leaves the remainder empty,
	// and a slab sized for the run would stay pooled for nothing.
	bufs := make([][]windowBuf, workers)
	rest := make([]*matrix.COO, workers)
	restHint := 0
	if nw == 0 {
		restHint = divHint(budget, workers)
	}
	for w := range rest {
		rest[w] = matrix.NewCOOIn(a.Matrix(), n, n, restHint)
	}
	defer func() {
		for _, r := range rest {
			r.Release()
		}
	}()
	partial := make([]Stats, workers)
	bufHint := divHint(budget, chunks)

	var (
		emitMu   sync.Mutex
		frontier int
		emitErr  error
	)
	// sealed keeps every delivered window's CSR for the aggregate.
	sealed := make([]*matrix.CSR, 0, nw)
	// advance seals and delivers every window at the frontier whose
	// pending count has reached zero. Callers hold emitMu, so windows
	// leave in strict index order no matter which worker advances.
	// The first onWindow error is sticky: it leaves the frontier on a
	// window that is already sealed, so advancing again would re-seal
	// it (a panic) — and delivering anything after a consumer error
	// would be wrong anyway. Every later advance returns the original
	// error without touching the compactor.
	advance := func() error {
		if emitErr != nil {
			return emitErr
		}
		for frontier < nw && pending[frontier].Load() == 0 {
			csr, events, dropped := compactor.Seal(frontier)
			sealed = append(sealed, csr)
			start := float64(frontier) * windowLen
			win := SparseWindow{
				Start:   start,
				End:     start + windowLen,
				Matrix:  csr,
				Events:  events,
				Dropped: dropped,
			}
			if err := onWindow(frontier, win); err != nil {
				emitErr = err
				return err
			}
			frontier++
		}
		return nil
	}
	// Windows no chunk can reach seal immediately (an empty leading
	// window of a late-starting scenario streams out at t=0).
	emitMu.Lock()
	err = advance()
	emitMu.Unlock()
	if err != nil {
		return nil, Stats{}, err
	}

	err = runChunks(ctx, chunks, workers, seed, func(w, k int, rng *rand.Rand) error {
		st, r := &partial[w], rest[w]
		klo, khi := int(lo[k]), int(hi[k])
		for len(bufs[w]) <= khi-klo {
			bufs[w] = append(bufs[w], windowBuf{entries: a.Matrix().GetEntries(divHint(bufHint, khi-klo+1))})
		}
		win := bufs[w][:khi-klo+1]
		if err := s.Emit(net, rng, pd, k, func(e Event) {
			st.Events++
			st.Packets += e.Packets
			i, iok := net.Index(e.Src)
			j, jok := net.Index(e.Dst)
			inAxis := iok && jok
			if !inAxis {
				st.Dropped += e.Packets
			}
			wi, ok := 0, nw > 0
			if ok {
				wi, ok = windowIndex(e.Time, windowLen, horizon, nw)
			}
			if !ok {
				if inAxis {
					r.Add(i, j, e.Packets)
				}
				return
			}
			if wi < klo || wi > khi {
				// The scenario emitted outside its declared span: the
				// window may already be sealed and silently missing this
				// event. Fail loudly — this is a ChunkSpanner bug.
				panic(fmt.Sprintf("netsim: scenario %q chunk %d emitted t=%g into window %d outside its declared span [%d,%d]",
					s.Name(), k, e.Time, wi, klo, khi))
			}
			b := &win[wi-klo]
			b.events++
			if inAxis {
				b.entries = append(b.entries, matrix.Entry{Row: i, Col: j, Val: e.Packets})
			} else {
				b.dropped += e.Packets
			}
		}); err != nil {
			return err
		}
		// The chunk is done: hand its buffers over, one locked call
		// per window it touched, then release its windows and flush
		// any that sealed. Only a decrement that hits zero can move
		// the frontier, so the lock is taken only then.
		for x := range win {
			b := &win[x]
			if b.events > 0 {
				compactor.Append(klo+x, b.entries, b.events, b.dropped)
			}
			b.entries, b.events, b.dropped = b.entries[:0], 0, 0
		}
		sealedAny := false
		for x := klo; x <= khi; x++ {
			if pending[x].Add(-1) == 0 {
				sealedAny = true
			}
		}
		if sealedAny {
			emitMu.Lock()
			err := advance()
			emitMu.Unlock()
			return err
		}
		return nil
	})
	for _, bs := range bufs {
		for _, b := range bs {
			a.Matrix().PutEntries(b.entries)
		}
	}
	if err != nil {
		return nil, Stats{}, err
	}
	// All chunks completed, so every pending count is zero: flush the
	// tail (trailing windows whose chunks finished without a final
	// zero-crossing of their own, plus trailing empties).
	emitMu.Lock()
	err = advance()
	emitMu.Unlock()
	if err != nil {
		return nil, Stats{}, err
	}

	// Each worker's remainder compacts on its own goroutine, so the
	// aggregate below sorts cells rather than events: every sealed
	// window's cells plus the compacted remainders, in one builder
	// sized up front and compacted once.
	var wg sync.WaitGroup
	for _, r := range rest {
		if r.Len() > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Compact()
			}()
		}
	}
	wg.Wait()
	total := 0
	for _, m := range sealed {
		total += m.NNZ()
	}
	for _, r := range rest {
		total += r.Len()
	}
	agg := matrix.NewCOOIn(a.Matrix(), n, n, total)
	for _, m := range sealed {
		agg.AddCSR(m)
	}
	for _, r := range rest {
		agg.AddCOO(r)
	}
	var stats Stats
	for _, st := range partial {
		stats.Events += st.Events
		stats.Packets += st.Packets
		stats.Dropped += st.Dropped
	}
	csr := agg.ToCSR()
	agg.Release()
	return csr, stats, nil
}
