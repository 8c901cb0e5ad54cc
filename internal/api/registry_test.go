package api

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestSessionSnapshotSorted: sessions live in a map, but the
// snapshot comes back ordered by ID, so /v1/sessions output is
// stable.
func TestSessionSnapshotSorted(t *testing.T) {
	store := newSessionStore()
	var ends []func()
	for i := 0; i < 50; i++ {
		_, end := store.Begin(context.Background(), "test", fmt.Sprintf("key-%d", i))
		ends = append(ends, end)
	}
	snap := store.Snapshot()
	if len(snap) != 50 {
		t.Fatalf("snapshot has %d sessions, want 50", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID }) {
		t.Errorf("snapshot not sorted by ID: %v", snap)
	}
	ids := map[int64]bool{}
	for _, s := range snap {
		if ids[s.ID] {
			t.Errorf("duplicate session ID %d", s.ID)
		}
		ids[s.ID] = true
	}
	for _, end := range ends {
		end()
	}
	if n := store.Len(); n != 0 {
		t.Errorf("store holds %d sessions after every end(), want 0", n)
	}
}

// TestSessionCancelByID: an operator cancel finds the session and
// surfaces ErrSessionCancelled as the context cause.
func TestSessionCancelByID(t *testing.T) {
	store := newSessionStore()
	type live struct {
		ctx context.Context
		end func()
	}
	byID := map[int64]live{}
	for i := 0; i < 32; i++ {
		ctx, end := store.Begin(context.Background(), "test", "k")
		byID[store.Snapshot()[len(byID)].ID] = live{ctx, end}
	}
	for id, l := range byID {
		if !store.CancelByID(id) {
			t.Fatalf("CancelByID(%d) did not find the session", id)
		}
		<-l.ctx.Done()
		if cause := context.Cause(l.ctx); !errors.Is(cause, ErrSessionCancelled) {
			t.Errorf("session %d cause = %v, want ErrSessionCancelled", id, cause)
		}
		l.end()
		if store.CancelByID(id) {
			t.Errorf("CancelByID(%d) found a finished session", id)
		}
	}
}

// TestSessionChurnAndCancelRace is the spawn/cancel race under
// -race: goroutines churn sessions while a canceller fires
// CancelByID at random live-or-dead IDs and a reader snapshots. The
// store must stay consistent and drain to empty.
func TestSessionChurnAndCancelRace(t *testing.T) {
	store := newSessionStore()
	var churn, aux sync.WaitGroup
	stop := make(chan struct{})

	// Churners: begin/end in tight loops; an operator cancel racing
	// a natural end() must never double-release or resurrect.
	for g := 0; g < 8; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; i < 300; i++ {
				_, end := store.Begin(context.Background(), "churn", fmt.Sprintf("g%d", g))
				end()
				end() // idempotent: double end must be harmless
			}
		}(g)
	}
	// Canceller: sprays IDs across the live range, hitting a mix of
	// in-flight and already-finished sessions.
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			store.CancelByID(int64(rng.Intn(8*300) + 1))
		}
	}()
	// Reader: snapshots must always be ID-sorted, even mid-churn.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := store.Snapshot()
			if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID }) {
				t.Error("mid-churn snapshot not sorted by ID")
				return
			}
		}
	}()

	churn.Wait()
	close(stop)
	aux.Wait()
	if n := store.Len(); n != 0 {
		t.Errorf("store holds %d sessions after churn, want 0", n)
	}
}
