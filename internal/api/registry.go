package api

import (
	"context"
	"errors"
	"sort"
	"sync"
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

// sessionStore tracks in-flight work: one mutex over one map. Every
// service call passes through Begin (and the end func it returns),
// so a snapshot at any moment names exactly the requests currently
// running. Safe for concurrent use.
type sessionStore struct {
	mu     sync.Mutex
	lastID int64
	active map[int64]*session
}

func newSessionStore() *sessionStore {
	return &sessionStore{active: make(map[int64]*session)}
}

// Begin registers an in-flight request and returns a context derived
// from ctx whose cancellation is additionally reachable through
// CancelByID — the hook that lets an operator abort a runaway
// generation — plus the end func that deregisters the session and
// releases its context resources (idempotent).
func (r *sessionStore) Begin(ctx context.Context, kind, key string) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	r.mu.Lock()
	r.lastID++
	id := r.lastID
	r.active[id] = &session{
		info:   SessionInfo{ID: id, Kind: kind, Key: key, Started: time.Now()},
		cancel: cancel,
	}
	r.mu.Unlock()
	var once sync.Once
	end := func() {
		once.Do(func() {
			r.mu.Lock()
			delete(r.active, id)
			r.mu.Unlock()
			cancel(nil)
		})
	}
	return ctx, end
}

// Snapshot returns the in-flight sessions ordered by ID, so
// /v1/sessions output is stable despite map iteration order.
func (r *sessionStore) Snapshot() []SessionInfo {
	var out []SessionInfo
	r.mu.Lock()
	for _, s := range r.active {
		out = append(out, s.info)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelByID cancels the identified session's context with
// ErrSessionCancelled as the cause, reporting whether it was in
// flight.
func (r *sessionStore) CancelByID(id int64) bool {
	r.mu.Lock()
	s, ok := r.active[id]
	r.mu.Unlock()
	if ok {
		s.cancel(ErrSessionCancelled)
	}
	return ok
}

// Len counts the in-flight sessions.
func (r *sessionStore) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
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
