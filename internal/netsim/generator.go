package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// The concurrent generation engine. A scenario partitions its
// workload into chunks (see the Scenario contract in catalog.go);
// the engine fans the chunk indices across a worker pool. Each chunk
// is generated with a private RNG seeded from (seed, chunk), so the
// set of events produced is a pure function of the configuration —
// never of the worker count or of scheduling order. Workers
// accumulate into private stores (a per-chunk trace slot, or the
// sparse fold's per-window buffers and per-worker remainder COO, see
// stream.go) that are combined order-insensitively at the end, which
// is what makes the aggregate output deterministic.

// Stats summarizes one generation run. All fields are sums over
// chunks, so they are identical for any worker count.
type Stats struct {
	// Events is the number of events generated.
	Events int
	// Packets is the total packet volume generated.
	Packets int
	// Dropped is the packet volume naming hosts outside the network
	// axis (only possible for scenarios emitting foreign names).
	Dropped int
}

// chunkSeed derives the deterministic RNG seed of chunk k from the
// run seed by splitmix64 finalization, decorrelating neighbouring
// chunks.
func chunkSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(chunk+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// chunkRNG returns chunk k's private random source.
func chunkRNG(seed int64, chunk int) *rand.Rand {
	return rand.New(rand.NewSource(chunkSeed(seed, chunk)))
}

// planRun validates the configuration and resolves the chunk and
// worker counts. workers ≤ 0 selects runtime.NumCPU(). NaN and ±Inf
// parameter fields are rejected here, before any chunk math: a NaN
// duration would otherwise flow through math.Ceil into a bogus chunk
// count and fail far from the bad input.
func planRun(s Scenario, net *Network, workers int, p Params) (chunks, nworkers int, pd Params, err error) {
	if s == nil {
		return 0, 0, p, fmt.Errorf("netsim: nil scenario")
	}
	if net == nil {
		return 0, 0, p, fmt.Errorf("netsim: nil network")
	}
	if err := p.validate(); err != nil {
		return 0, 0, p, err
	}
	pd = p.withDefaults()
	chunks = s.Chunks(net, pd)
	if chunks < 1 {
		return 0, 0, pd, fmt.Errorf("netsim: scenario %q reported %d chunks", s.Name(), chunks)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > chunks {
		workers = chunks
	}
	return chunks, workers, pd, nil
}

// runChunks drives the worker pool: each worker claims chunk indices
// from a shared counter and hands (worker, chunk, rng) to fn. The
// first error stops the run and is returned. Cancelling ctx stops the
// claim loop at chunk granularity: no new chunk starts once the
// context is done, in-flight chunks finish, and the context's error
// is reported — the hook the api layer's request cancellation rides
// on.
func runChunks(ctx context.Context, chunks, workers int, seed int64, fn func(worker, chunk int, rng *rand.Rand) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				if ctx.Err() != nil {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= chunks {
					return
				}
				if err := fn(w, k, chunkRNG(seed, k)); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// GenerateTraceArena generates the scenario's full event trace on
// the given number of workers (≤ 0 selects runtime.NumCPU()). The
// trace is identical for any worker count: chunks land in per-chunk
// slots, are concatenated in chunk order, and the final sort is
// stable on equal timestamps. When ctx is cancelled mid-run the
// worker pool stops claiming chunks and the context's error is
// returned instead of a partial trace.
//
// The chunk buffers and the trace's backing slab are pooled in the
// arena (nil allocates fresh — identical output either way). Chunk
// buffers recycle as soon as they are concatenated; the returned
// trace's slab belongs to the caller, who should hand it back with
// Arena.ReleaseTrace once every view of the trace is dead.
func GenerateTraceArena(ctx context.Context, a *Arena, s Scenario, net *Network, seed int64, workers int, p Params) (Trace, error) {
	chunks, workers, pd, err := planRun(s, net, workers, p)
	if err != nil {
		return nil, err
	}
	hint := divHint(eventBudget(pd), chunks)
	perChunk := make([][]Event, chunks)
	err = runChunks(ctx, chunks, workers, seed, func(_, k int, rng *rand.Rand) error {
		buf := a.GetEvents(hint)
		if err := s.Emit(net, rng, pd, k, func(e Event) { buf = append(buf, e) }); err != nil {
			a.PutEvents(buf)
			return err
		}
		perChunk[k] = buf
		return nil
	})
	if err != nil {
		for _, buf := range perChunk {
			a.PutEvents(buf)
		}
		return nil, err
	}
	total := 0
	for _, buf := range perChunk {
		total += len(buf)
	}
	var trace Trace
	if a != nil {
		trace = Trace(a.GetEvents(total))
	} else {
		trace = make(Trace, 0, total)
	}
	for _, buf := range perChunk {
		trace = append(trace, buf...)
		a.PutEvents(buf)
	}
	trace.Sort()
	return trace, nil
}
