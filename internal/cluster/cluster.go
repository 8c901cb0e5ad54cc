package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/player"
	"repro/internal/router"
)

// ErrNoBackends reports a request against a cluster whose every
// backend has been removed. It wraps router.ErrEmptyRing, so the
// serve layer's single errors.Is check turns both the in-process and
// the cross-process flavor into HTTP 503.
var ErrNoBackends = fmt.Errorf("cluster: no live backends (%w)", router.ErrEmptyRing)

// ErrUnknownBackend reports a Remove of a URL that is not a member.
var ErrUnknownBackend = errors.New("cluster: backend is not a member")

// DefaultDrainTimeout bounds how long RemoveBackend waits for the
// departing backend's in-flight requests (streams included) before
// reporting the drain incomplete. The backend keeps serving whatever
// is still attached either way — the bound is on the admin call, not
// on the requests.
const DefaultDrainTimeout = 30 * time.Second

// Option configures a Cluster under construction.
type Option func(*Cluster)

// WithWorkerOptions forwards options to every RemoteWorker the
// cluster builds (present and future members).
func WithWorkerOptions(opts ...WorkerOption) Option {
	return func(c *Cluster) { c.workerOpts = opts }
}

// WithDrainTimeout sets the RemoveBackend drain bound.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *Cluster) {
		if d > 0 {
			c.drainTimeout = d
		}
	}
}

// member is one live backend: its worker plus the in-flight counter
// RemoveBackend drains against.
type member struct {
	url    string
	worker *RemoteWorker
	wg     sync.WaitGroup
}

// Cluster fronts N backend twserve processes with one api.Core
// surface, routing every request's canonical RouteKey through a
// consistent hash ring so respelled specs and Generate↔Analyze pairs
// keep hitting the same backend's warm cache. Membership is live:
// AddBackend and RemoveBackend grow and shrink the ring under load,
// moving only the ≤~K/N keyspace slice the ring's property tests
// bound, and removal drains the departing backend's in-flight
// requests before its connections are torn down.
//
// Slots are stable per URL for the cluster's lifetime: a backend
// removed and re-added gets its old ring position back, so its
// surviving warm cache lines become hits again — the remove/re-add
// assignment-restoration property the ring pins.
type Cluster struct {
	workerOpts   []WorkerOption
	drainTimeout time.Duration

	mu      sync.RWMutex
	ring    *router.Ring
	members map[int]*member // slot → live member
	slots   map[string]int  // URL → stable slot, kept across removals
	next    int             // next fresh slot
}

var _ api.Core = (*Cluster)(nil)

// New builds a cluster over the given backend base URLs. An empty
// list is legal — the cluster answers ErrNoBackends until an
// AddBackend lands.
func New(backends []string, opts ...Option) (*Cluster, error) {
	c := &Cluster{
		drainTimeout: DefaultDrainTimeout,
		ring:         router.NewRing(0),
		members:      map[int]*member{},
		slots:        map[string]int{},
	}
	for _, opt := range opts {
		opt(c)
	}
	for _, b := range backends {
		if err := c.AddBackend(b); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// AddBackend grows the ring with a backend URL. Adding a URL that is
// already a member is a no-op; re-adding a previously removed URL
// restores its old ring slot (and therefore its old keyspace slice).
func (c *Cluster) AddBackend(backend string) error {
	w, err := NewRemoteWorker(backend, c.workerOpts...)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, seen := c.slots[w.Base()]
	if seen {
		if _, live := c.members[slot]; live {
			return nil // already a member
		}
	} else {
		slot = c.next
		c.next++
		c.slots[w.Base()] = slot
	}
	c.members[slot] = &member{url: w.Base(), worker: w}
	c.ring.Add(slot)
	return nil
}

// RemoveBackend shrinks the ring: the backend stops receiving new
// requests immediately, its keyspace slice falls to the survivors,
// and the call then waits (bounded by the drain timeout) for its
// in-flight requests to finish before tearing down its idle
// connections. Reports whether the drain completed in time;
// ErrUnknownBackend if the URL is not a member.
func (c *Cluster) RemoveBackend(backend string) (drained bool, err error) {
	norm, err := normalizeBase(backend)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	slot, seen := c.slots[norm]
	m, live := c.members[slot]
	if !seen || !live {
		c.mu.Unlock()
		return false, fmt.Errorf("%w: %s", ErrUnknownBackend, norm)
	}
	c.ring.Remove(slot)
	delete(c.members, slot)
	c.mu.Unlock()

	// Every in-flight pick registered under the read lock before the
	// write lock above landed, so the wait below covers all of them;
	// no new request can reach the member anymore.
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		drained = true
	case <-time.After(c.drainTimeout):
	}
	m.worker.Close()
	return drained, nil
}

// Backends lists the live member URLs in slot (join) order.
func (c *Cluster) Backends() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := make([]int, 0, len(c.members))
	for s := range c.members {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = c.members[s].url
	}
	return out
}

// Size reports the live backend count.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.members)
}

// pick resolves a routing key to its live member and registers the
// caller in-flight; the returned release must be called when the
// request finishes so RemoveBackend's drain can complete.
func (c *Cluster) pick(key string) (*member, func(), error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slot, err := c.ring.Pick(key)
	if err != nil {
		return nil, nil, ErrNoBackends
	}
	m := c.members[slot]
	m.wg.Add(1)
	return m, func() { m.wg.Done() }, nil
}

// snapshot returns the live members in slot order for fan-out calls.
func (c *Cluster) snapshot() []*member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := make([]int, 0, len(c.members))
	for s := range c.members {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]*member, len(slots))
	for i, s := range slots {
		out[i] = c.members[s]
	}
	return out
}

// Generate routes the request to its spec's backend.
func (c *Cluster) Generate(ctx context.Context, req api.GenerateRequest) (*api.GenerateResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.Generate(ctx, req)
}

// GenerateStream routes the stream to the same backend the batch
// request would use, keeping cache and arena locality.
func (c *Cluster) GenerateStream(ctx context.Context, req api.GenerateRequest, emit func(api.StreamFrame) error) error {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return err
	}
	defer release()
	return m.worker.GenerateStream(ctx, req, emit)
}

// Analyze routes spec-path requests with their generate identity (so
// they share the cached run) and matrix posts by shape.
func (c *Cluster) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.Analyze(ctx, req)
}

// Module routes by the module's cache identity.
func (c *Cluster) Module(ctx context.Context, req api.ModuleRequest) (*core.Module, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.Module(ctx, req)
}

// Campaign routes by the campaign's cache identity.
func (c *Cluster) Campaign(ctx context.Context, req api.CampaignRequest) (*bridge.Campaign, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.Campaign(ctx, req)
}

// Player methods route by player identity: each backend process owns
// its own player store, so the ring genuinely partitions players
// across the cluster and per-player rate limits are enforced by the
// one backend that owns the player.

// PlayerCreate routes by player identity.
func (c *Cluster) PlayerCreate(ctx context.Context, req api.PlayerCreateRequest) (*api.PlayerResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.PlayerCreate(ctx, req)
}

// PlayerGet routes by player identity.
func (c *Cluster) PlayerGet(ctx context.Context, req api.PlayerGetRequest) (*api.PlayerResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.PlayerGet(ctx, req)
}

// PlayerAttemptStart routes by player identity.
func (c *Cluster) PlayerAttemptStart(ctx context.Context, req api.AttemptStartRequest) (*api.AttemptResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.PlayerAttemptStart(ctx, req)
}

// PlayerAttemptSubmit routes by player identity.
func (c *Cluster) PlayerAttemptSubmit(ctx context.Context, req api.AttemptSubmitRequest) (*api.SubmitResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.PlayerAttemptSubmit(ctx, req)
}

// PlayerProgress routes by player identity.
func (c *Cluster) PlayerProgress(ctx context.Context, req api.ProgressRequest) (*api.ProgressResult, error) {
	m, release, err := c.pick(req.RouteKey())
	if err != nil {
		return nil, err
	}
	defer release()
	return m.worker.PlayerProgress(ctx, req)
}

// PlayerMastery fans out: each backend owns a disjoint slice of the
// player population, so the cohort view is the merge of every
// backend's local statistics. Backends are probed concurrently; a
// failed probe fails the whole read (a partial cohort would silently
// misreport difficulty).
func (c *Cluster) PlayerMastery(ctx context.Context) (*api.MasteryResult, error) {
	members := c.snapshot()
	if len(members) == 0 {
		return nil, ErrNoBackends
	}
	parts := make([][]player.MasteryItem, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		m.wg.Add(1)
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			defer m.wg.Done()
			res, err := m.worker.PlayerMastery(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: mastery probe of %s: %w", m.url, err)
				return
			}
			parts[i] = res.Items
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &api.MasteryResult{Version: api.Version, Items: api.MergeMastery(parts...)}, nil
}

// Catalog is identical on every backend; the first live one answers.
// An empty cluster answers an empty (but versioned) catalog.
func (c *Cluster) Catalog(ctx context.Context) *api.CatalogResult {
	members := c.snapshot()
	if len(members) == 0 {
		return &api.CatalogResult{Version: api.Version}
	}
	return members[0].worker.Catalog(ctx)
}

// Sessions merges every backend's in-flight list. Session IDs are
// only unique per process, so entries are identified by the
// (Backend, ID) pair and ordered by ID then backend.
func (c *Cluster) Sessions() []api.SessionInfo {
	var out []api.SessionInfo
	for _, m := range c.snapshot() {
		out = append(out, m.worker.Sessions()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}

// CancelSession broadcasts the cancel to every backend. IDs are not
// unique across processes, so this is best-effort by design: it
// cancels every backend's session with that ID and reports whether
// any was found.
func (c *Cluster) CancelSession(id int64) bool {
	found := false
	for _, m := range c.snapshot() {
		if m.worker.CancelSession(id) {
			found = true
		}
	}
	return found
}

// CacheStats aggregates the cluster's cache counters; each Shards
// entry is one backend's own fleet aggregate.
func (c *Cluster) CacheStats() api.CacheStats {
	members := c.snapshot()
	var agg api.CacheStats
	agg.Shards = make([]api.CacheStats, len(members))
	for i, m := range members {
		st := m.worker.CacheStats()
		st.Shards = nil
		agg.Shards[i] = st
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Len += st.Len
		agg.Capacity += st.Capacity
	}
	return agg
}

// Stats aggregates /v1/stats across the backends: every backend's
// workers appear (renumbered fleet-wide, tagged with their backend
// URL, per-stripe detail intact) plus the per-backend rollup and
// cluster totals under Cluster. Backends are probed concurrently so
// one slow member delays the scrape by at most the probe timeout; a
// failed probe reports its error in its BackendStats entry rather
// than failing the whole report.
func (c *Cluster) Stats() api.StatsReport {
	members := c.snapshot()
	type probe struct {
		rep api.StatsReport
		err error
	}
	probes := make([]probe, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			probes[i].rep, probes[i].err = m.worker.stats()
		}(i, m)
	}
	wg.Wait()

	rep := api.StatsReport{Version: api.Version, Cluster: &api.ClusterStats{}}
	for i, m := range members {
		if probes[i].err != nil {
			rep.Cluster.Backends = append(rep.Cluster.Backends,
				api.BackendStats{Backend: m.url, Error: probes[i].err.Error()})
			continue
		}
		var bs api.BackendStats
		bs.Backend = m.url
		bs.Workers = len(probes[i].rep.Workers)
		for _, ws := range probes[i].rep.Workers {
			ws.Worker = len(rep.Workers)
			ws.Backend = m.url
			rep.Workers = append(rep.Workers, ws)

			bs.Sessions += ws.Sessions
			bs.Cache.Hits += ws.Cache.Hits
			bs.Cache.Misses += ws.Cache.Misses
			bs.Cache.Evictions += ws.Cache.Evictions
			bs.Cache.Len += ws.Cache.Len
			bs.Cache.Capacity += ws.Cache.Capacity
		}
		rep.Cluster.Backends = append(rep.Cluster.Backends, bs)
		rep.Cluster.Sessions += bs.Sessions
		rep.Cluster.Totals.Hits += bs.Cache.Hits
		rep.Cluster.Totals.Misses += bs.Cache.Misses
		rep.Cluster.Totals.Evictions += bs.Cache.Evictions
		rep.Cluster.Totals.Len += bs.Cache.Len
		rep.Cluster.Totals.Capacity += bs.Cache.Capacity
	}
	return rep
}
