package api

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionCancelled marks a run aborted by an operator through
// CancelSession — distinct from context.Canceled (the caller's own
// hangup) so that coalesced waiters do not re-elect a leader and
// silently restart work an operator just killed.
var ErrSessionCancelled = errors.New("api: session cancelled by operator")

// SessionInfo describes one in-flight request: what kind of work it
// is, the canonical key it runs under, and when it started. Served
// by twserve's /v1/sessions.
type SessionInfo struct {
	ID      int64     `json:"id"`
	Kind    string    `json:"kind"`
	Key     string    `json:"key"`
	Started time.Time `json:"started"`
	// Backend names the backend process holding the session when the
	// list was merged by a cluster proxy. Session IDs are only unique
	// within one process, so the pair (Backend, ID) is the cluster-wide
	// identity. Empty for in-process sessions.
	Backend string `json:"backend,omitempty"`
}

// session pairs the public info with the cancel handle
// CancelSession pulls.
type session struct {
	info   SessionInfo
	cancel context.CancelCauseFunc
}

// SessionStore tracks in-flight work. Every service call passes
// through Begin (and the end func it returns), so a snapshot at any
// moment names exactly the requests currently holding worker pools.
// Implementations must be safe for concurrent use.
type SessionStore interface {
	// Begin registers an in-flight request and returns a context
	// derived from ctx whose cancellation is additionally reachable
	// through CancelByID, plus the end func that deregisters the
	// session and releases its context resources (idempotent).
	Begin(ctx context.Context, kind, key string) (context.Context, func())
	// Snapshot returns the in-flight sessions ordered by ID.
	Snapshot() []SessionInfo
	// CancelByID cancels the identified session's context with
	// ErrSessionCancelled as the cause, reporting whether it was in
	// flight.
	CancelByID(id int64) bool
	// Len counts the in-flight sessions.
	Len() int
}

// sessionShard is one stripe of the session table: a mutex and the
// slice of active sessions whose IDs hash here.
type sessionShard struct {
	mu     sync.Mutex
	active map[int64]*session
}

// sessionStore is the lock-striped SessionStore. IDs come from the
// store's own atomic counter, and a session lives on the stripe its
// ID masks to, so CancelByID goes straight to one stripe without
// scanning.
type sessionStore struct {
	ids    atomic.Int64
	shards []*sessionShard
	mask   uint64
}

// newSessionStore builds a store striped over nshards (rounded up to
// a power of two).
func newSessionStore(nshards int) *sessionStore {
	n := nextPow2(max(1, nshards))
	r := &sessionStore{shards: make([]*sessionShard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i] = &sessionShard{active: make(map[int64]*session)}
	}
	return r
}

// Begin registers an in-flight request and returns a context derived
// from ctx whose cancellation is additionally reachable through
// CancelByID — the hook that lets an operator abort a runaway
// generation — plus the idempotent end func.
func (r *sessionStore) Begin(ctx context.Context, kind, key string) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	id := r.ids.Add(1)
	s := &session{
		info:   SessionInfo{ID: id, Kind: kind, Key: key, Started: time.Now()},
		cancel: cancel,
	}
	sh := r.shards[uint64(id)&r.mask]
	sh.mu.Lock()
	sh.active[id] = s
	sh.mu.Unlock()
	var once sync.Once
	end := func() {
		once.Do(func() {
			sh.mu.Lock()
			delete(sh.active, id)
			sh.mu.Unlock()
			cancel(nil)
		})
	}
	return ctx, end
}

// Snapshot returns the in-flight sessions ordered by ID — the merge
// across stripes sorts, so /v1/sessions output is stable no matter
// which stripe each session landed on.
func (r *sessionStore) Snapshot() []SessionInfo {
	var out []SessionInfo
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, s := range sh.active {
			out = append(out, s.info)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelByID cancels the identified session's context with
// ErrSessionCancelled as the cause, reporting whether it was in
// flight. The ID's stripe is a pure function of the ID, so this is
// one lock, not a scan.
func (r *sessionStore) CancelByID(id int64) bool {
	sh := r.shards[uint64(id)&r.mask]
	sh.mu.Lock()
	s, ok := sh.active[id]
	sh.mu.Unlock()
	if ok {
		s.cancel(ErrSessionCancelled)
	}
	return ok
}

// Len counts the in-flight sessions across all stripes.
func (r *sessionStore) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.active)
		sh.mu.Unlock()
	}
	return n
}

// sessionErr rewrites a cancellation that an operator caused into
// ErrSessionCancelled, so callers (and coalesced waiters) can tell
// "the operator killed this run" from "my own caller hung up". Any
// other error passes through.
func sessionErr(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), ErrSessionCancelled) {
		return ErrSessionCancelled
	}
	return err
}
