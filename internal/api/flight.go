package api

import (
	"context"
	"errors"
	"sync"
)

// flightGroup coalesces concurrent cold requests for the same
// canonical key: the classroom thundering herd — thirty students
// posting the same assigned spec inside one generation's runtime —
// runs one generation, and everyone else waits for that result. A
// stdlib-only stand-in for x/sync/singleflight with one twist: a
// leader cancelled by its own caller — a hangup or the caller's own
// deadline — must not fail the herd, so a waiter whose own context is
// still live retries and elects a new leader instead of inheriting
// the cancellation. One mutex guards the whole table; the zero value
// is ready to use.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight computation; done closes when res/err
// are final. waiters counts the callers that joined it instead of
// leading, changed under the group's mu.
type flightCall struct {
	done    chan struct{}
	res     any
	err     error
	waiters int
}

// do runs fn for key, unless another caller is already running it —
// then it waits and shares that caller's outcome (shared=true).
// Waiting respects the waiter's own context. An ErrSessionCancelled
// leader failure is shared, not retried: the operator killed that
// run on purpose.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (res any, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		if c, ok := g.calls[key]; ok {
			c.waiters++
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				// The leader's caller hung up or ran out of time,
				// not ours: take the lead ourselves.
				continue
			}
			return c.res, true, c.err
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()
		c.res, c.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.res, false, c.err
	}
}
