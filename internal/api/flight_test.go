package api

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFlightsCoalescePerKey: the singleflight group coalesces
// concurrent callers of one key onto one execution.
func TestFlightsCoalescePerKey(t *testing.T) {
	var g flightGroup
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.do(context.Background(), "same-key", func() (any, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				<-gate
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("do = %v, %v", v, err)
			}
		}()
	}
	// Release the leader only once the other nine callers are parked
	// on its flight: a caller that reached do after the gate opened
	// would find the flight finished and lead one of its own.
	for parkedWaiters(&g, "same-key") < 9 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if runs != 1 {
		t.Errorf("fn ran %d times for one key, want 1 (coalesced)", runs)
	}
}

// parkedWaiters reports how many callers have joined key's in-flight
// call as waiters (0 when no call is in flight).
func parkedWaiters(g *flightGroup, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// TestFlightWaiterOutlivesLeaderDeadline: a leader whose caller ran
// out of time must not fail a waiter with no deadline. The waiter
// retries, leads a run of its own, and gets its result.
func TestFlightWaiterOutlivesLeaderDeadline(t *testing.T) {
	var g flightGroup
	lctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	gate := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := g.do(lctx, "k", func() (any, error) {
			<-gate
			<-lctx.Done()
			return nil, lctx.Err()
		})
		leader <- err
	}()
	for !inFlight(&g, "k") {
		runtime.Gosched()
	}
	waiter := make(chan error, 1)
	go func() {
		v, _, err := g.do(context.Background(), "k", func() (any, error) { return 42, nil })
		if err == nil && v.(int) != 42 {
			t.Errorf("waiter got %v, want 42", v)
		}
		waiter <- err
	}()
	// Release the leader only once the waiter is parked on its flight.
	for parkedWaiters(&g, "k") < 1 {
		runtime.Gosched()
	}
	close(gate)
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("leader err = %v, want context.DeadlineExceeded", err)
	}
	if err := <-waiter; err != nil {
		t.Errorf("waiter with no deadline got %v from its leader's deadline", err)
	}
}

// inFlight reports whether a call for key is running.
func inFlight(g *flightGroup, key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}
