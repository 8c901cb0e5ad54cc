package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/player"
	"repro/internal/router"
	"repro/internal/serve"
)

// ErrNoBackends reports a request against a cluster whose every
// backend has been removed. It wraps router.ErrEmptyRing, so the
// serve layer's single errors.Is check turns both the in-process and
// the cross-process flavor into HTTP 503.
var ErrNoBackends = fmt.Errorf("cluster: no live backends (%w)", router.ErrEmptyRing)

// ErrUnknownBackend reports a Remove of a URL that is not a member.
var ErrUnknownBackend = errors.New("cluster: backend is not a member")

// drainTimeout bounds how long RemoveBackend waits for the departing
// backend's in-flight requests (streams included) before reporting
// the drain incomplete. The backend keeps serving whatever is still
// attached either way — the bound is on the admin call, not on the
// requests.
const drainTimeout = 30 * time.Second

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
	mu      sync.RWMutex
	ring    *router.Ring
	members map[int]*transport // slot → live member
	slots   map[string]int     // URL → stable slot, kept across removals
	next    int                // next fresh slot
}

var _ api.Core = (*Cluster)(nil)

// New builds a cluster over the given backend base URLs. An empty
// list is legal — the cluster answers ErrNoBackends until an
// AddBackend lands.
func New(backends []string) (*Cluster, error) {
	c := &Cluster{
		ring:    router.NewRing(0),
		members: map[int]*transport{},
		slots:   map[string]int{},
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
	base, err := normalizeBase(backend)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, seen := c.slots[base]
	if seen {
		if _, live := c.members[slot]; live {
			return nil // already a member
		}
	} else {
		slot = c.next
		c.next++
		c.slots[base] = slot
	}
	c.members[slot] = newTransport(base)
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
	t, live := c.members[slot]
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
	go func() { t.wg.Wait(); close(done) }()
	select {
	case <-done:
		drained = true
	case <-time.After(drainTimeout):
	}
	t.client.CloseIdleConnections()
	return drained, nil
}

// Backends lists the live member URLs in slot (join) order.
func (c *Cluster) Backends() []string {
	var out []string
	for _, t := range c.snapshot() {
		out = append(out, t.base)
		t.wg.Done()
	}
	return out
}

// pick resolves a routing key to its live member and registers the
// caller in-flight; the returned release must be called when the
// request finishes so RemoveBackend's drain can complete.
func (c *Cluster) pick(key string) (*transport, func(), error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slot, err := c.ring.Pick(key)
	if err != nil {
		return nil, nil, ErrNoBackends
	}
	t := c.members[slot]
	t.wg.Add(1)
	return t, t.wg.Done, nil
}

// snapshot returns the live members in slot order, each registered
// in-flight under the same read lock pick uses; the caller calls
// wg.Done on every one.
func (c *Cluster) snapshot() []*transport {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := make([]int, 0, len(c.members))
	for s := range c.members {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]*transport, len(slots))
	for i, s := range slots {
		out[i] = c.members[s]
		out[i].wg.Add(1)
	}
	return out
}

// call routes one JSON request by key to its member and decodes the
// answer into a fresh T.
func call[T any](ctx context.Context, c *Cluster, key, method, path string, in any, idempotent bool) (*T, error) {
	t, release, err := c.pick(key)
	if err != nil {
		return nil, err
	}
	defer release()
	out := new(T)
	if err := t.do(ctx, method, path, in, out, idempotent); err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut sends one request to every live member concurrently, each
// bounded by probeTimeout, and returns the members in slot order
// beside their decoded answers and errors. A failed probe leaves its
// answer zero.
func fanOut[T any](ctx context.Context, c *Cluster, method, path string, idempotent bool) ([]*transport, []T, []error) {
	members := c.snapshot()
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res := make([]T, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, t := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer t.wg.Done()
			errs[i] = t.do(ctx, method, path, nil, &res[i], idempotent)
		}()
	}
	wg.Wait()
	return members, res, errs
}

// Generate routes the request to its spec's backend.
func (c *Cluster) Generate(ctx context.Context, req api.GenerateRequest) (*api.GenerateResult, error) {
	return call[api.GenerateResult](ctx, c, req.RouteKey(), http.MethodPost, "/v1/generate", req, true)
}

// GenerateStream routes the stream to the same backend the batch
// request would use, keeping cache and arena locality.
func (c *Cluster) GenerateStream(ctx context.Context, req api.GenerateRequest, emit func(api.StreamFrame) error) error {
	t, release, err := c.pick(req.RouteKey())
	if err != nil {
		return err
	}
	defer release()
	return t.stream(ctx, req, emit)
}

// Analyze routes spec-path requests with their generate identity (so
// they share the cached run) and matrix posts by shape.
func (c *Cluster) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResult, error) {
	return call[api.AnalyzeResult](ctx, c, req.RouteKey(), http.MethodPost, "/v1/analyze", req, true)
}

// Module routes by the module's cache identity.
func (c *Cluster) Module(ctx context.Context, req api.ModuleRequest) (*core.Module, error) {
	return call[core.Module](ctx, c, req.RouteKey(), http.MethodPost, "/v1/module", req, true)
}

// Campaign routes by the campaign's cache identity.
func (c *Cluster) Campaign(ctx context.Context, req api.CampaignRequest) (*bridge.Campaign, error) {
	return call[bridge.Campaign](ctx, c, req.RouteKey(), http.MethodPost, "/v1/campaign", req, true)
}

// Player methods route by player identity: each backend process owns
// its own player store, so the ring genuinely partitions players
// across the cluster and per-player rate limits are enforced by the
// one backend that owns the player. Creates, attempt starts and
// submits never retry: one that landed but lost its response would
// turn a retry into a spurious 409 or a second attempt ID. Reads, and
// progress advances (re-completing a done unit is a no-op), may.

// PlayerCreate routes by player identity.
func (c *Cluster) PlayerCreate(ctx context.Context, req api.PlayerCreateRequest) (*api.PlayerResult, error) {
	return call[api.PlayerResult](ctx, c, req.RouteKey(), http.MethodPost, "/v1/player", req, false)
}

// PlayerGet routes by player identity.
func (c *Cluster) PlayerGet(ctx context.Context, req api.PlayerGetRequest) (*api.PlayerResult, error) {
	return call[api.PlayerResult](ctx, c, req.RouteKey(), http.MethodGet, "/v1/player/"+url.PathEscape(req.ID), nil, true)
}

// PlayerAttemptStart routes by player identity.
func (c *Cluster) PlayerAttemptStart(ctx context.Context, req api.AttemptStartRequest) (*api.AttemptResult, error) {
	path := "/v1/player/" + url.PathEscape(req.Player) + "/attempt"
	return call[api.AttemptResult](ctx, c, req.RouteKey(), http.MethodPost, path, req, false)
}

// PlayerAttemptSubmit routes by player identity.
func (c *Cluster) PlayerAttemptSubmit(ctx context.Context, req api.AttemptSubmitRequest) (*api.SubmitResult, error) {
	path := fmt.Sprintf("/v1/player/%s/attempt/%d", url.PathEscape(req.Player), req.Attempt)
	return call[api.SubmitResult](ctx, c, req.RouteKey(), http.MethodPost, path, req, false)
}

// PlayerProgress routes by player identity: a read with Unit empty,
// an advance with Unit set.
func (c *Cluster) PlayerProgress(ctx context.Context, req api.ProgressRequest) (*api.ProgressResult, error) {
	path := "/v1/player/" + url.PathEscape(req.Player) + "/progress"
	if strings.TrimSpace(req.Unit) == "" {
		return call[api.ProgressResult](ctx, c, req.RouteKey(), http.MethodGet, path, nil, true)
	}
	return call[api.ProgressResult](ctx, c, req.RouteKey(), http.MethodPost, path, req, true)
}

// PlayerMastery fans out: each backend owns a disjoint slice of the
// player population, so the cohort view is the merge of every
// backend's local statistics. A failed probe fails the whole read (a
// partial cohort would silently misreport difficulty).
func (c *Cluster) PlayerMastery(ctx context.Context) (*api.MasteryResult, error) {
	members, res, errs := fanOut[api.MasteryResult](ctx, c, http.MethodGet, "/v1/player/mastery", true)
	if len(members) == 0 {
		return nil, ErrNoBackends
	}
	parts := make([][]player.MasteryItem, len(members))
	for i, t := range members {
		if errs[i] != nil {
			return nil, fmt.Errorf("cluster: mastery probe of %s: %w", t.base, errs[i])
		}
		parts[i] = res[i].Items
	}
	return &api.MasteryResult{Version: api.Version, Items: api.MergeMastery(parts...)}, nil
}

// Catalog is identical on every backend: the first live member in
// slot order that answers serves it. Each member gets one attempt —
// the walk to the next member is the retry, so a dead first member
// costs one failed connection, not the transport's backoff budget. A
// cluster where none answers serves an empty (but versioned) catalog.
func (c *Cluster) Catalog(ctx context.Context) *api.CatalogResult {
	members := c.snapshot()
	defer func() {
		for _, t := range members {
			t.wg.Done()
		}
	}()
	for _, t := range members {
		var res api.CatalogResult
		if t.do(ctx, http.MethodGet, "/v1/catalog", nil, &res, false) == nil {
			return &res
		}
	}
	return &api.CatalogResult{Version: api.Version}
}

// Sessions merges every backend's in-flight list, each entry tagged
// with its backend's URL. Session IDs are only unique per process, so
// entries are identified by the (Backend, ID) pair and ordered by ID
// then backend.
func (c *Cluster) Sessions() []api.SessionInfo {
	members, lists, _ := fanOut[[]api.SessionInfo](context.TODO(), c, http.MethodGet, "/v1/sessions", true)
	var out []api.SessionInfo
	for i, t := range members {
		for _, s := range lists[i] {
			s.Backend = t.base
			out = append(out, s)
		}
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
	_, res, _ := fanOut[serve.CancelResult](context.TODO(), c, http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", id), false)
	for _, r := range res {
		if r.Cancelled {
			return true
		}
	}
	return false
}

// Stats aggregates /v1/stats across the backends: the top-level
// counters are the live backends' sums, and Cluster lists each
// backend's own. A failed probe reports its error in its BackendStats
// entry rather than failing the whole report.
func (c *Cluster) Stats() api.StatsReport {
	members, reps, errs := fanOut[api.StatsReport](context.TODO(), c, http.MethodGet, "/v1/stats", true)
	rep := api.StatsReport{Version: api.Version, Cluster: &api.ClusterStats{}}
	for i, t := range members {
		bs := api.BackendStats{Backend: t.base}
		if errs[i] != nil {
			bs.Error = errs[i].Error()
		} else {
			bs.ServiceStats = reps[i].ServiceStats
			rep.Add(bs.ServiceStats)
		}
		rep.Cluster.Backends = append(rep.Cluster.Backends, bs)
	}
	return rep
}
