package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/serve"
)

// fixture is one proxy topology: n real backend servers (each a full
// serve mux over its own api.Service, exactly what `twserve` runs,
// plus the slow run of slowCore), a Cluster fronting them, and the
// proxy's own HTTP server.
type fixture struct {
	svcs     []*slowCore
	backends []*httptest.Server
	cl       *cluster.Cluster
	proxy    *httptest.Server
}

func newBackend(t *testing.T) (*slowCore, *httptest.Server) {
	t.Helper()
	svc := &slowCore{Service: api.New(), runs: make(map[int64]slowRun)}
	srv := httptest.NewServer(serve.NewMux(svc))
	t.Cleanup(srv.Close)
	return svc, srv
}

// newProxy serves a cluster's proxy mux, membership routes included.
func newProxy(t *testing.T, cl *cluster.Cluster) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.NewProxyMux(cl, cl))
	t.Cleanup(srv.Close)
	return srv
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	f := &fixture{}
	var urls []string
	for i := 0; i < n; i++ {
		svc, srv := newBackend(t)
		f.svcs = append(f.svcs, svc)
		f.backends = append(f.backends, srv)
		urls = append(urls, srv.URL)
	}
	cl, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	f.cl = cl
	f.proxy = newProxy(t, cl)
	return f
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// slowClusterSpec names a run that only the test backends serve:
// slowCore holds it in flight for about a second, long enough for the
// drain and cancellation tests to observe it.
const slowClusterSpec = "cluster-slow-test"

// slowCore is the core every test backend serves. It embeds a real
// api.Service, so every route stays real, except a generate of
// slowClusterSpec: that run waits in a ctx-aware loop which the
// core's own Sessions and CancelSession list and cancel, then answers
// with a real scan result. netsim's catalog is never touched.
type slowCore struct {
	*api.Service
	mu     sync.Mutex
	lastID int64
	runs   map[int64]slowRun
}

type slowRun struct {
	info   api.SessionInfo
	cancel context.CancelCauseFunc
}

// slowIDBase keeps the slow runs' session IDs clear of the
// embedded service's own.
const slowIDBase = 1 << 40

func (c *slowCore) Generate(ctx context.Context, req api.GenerateRequest) (*api.GenerateResult, error) {
	if req.Spec != slowClusterSpec {
		return c.Service.Generate(ctx, req)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	c.mu.Lock()
	c.lastID++
	id := slowIDBase + c.lastID
	c.runs[id] = slowRun{
		info:   api.SessionInfo{ID: id, Kind: "generate", Key: slowClusterSpec, Started: time.Now()},
		cancel: cancel,
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, id)
		c.mu.Unlock()
		cancel(nil)
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for i := 0; i < 200; i++ {
		select {
		case <-ctx.Done():
			if cause := context.Cause(ctx); errors.Is(cause, api.ErrSessionCancelled) {
				return nil, fmt.Errorf("%w", cause)
			}
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
	return c.Service.Generate(ctx, api.GenerateRequest{Spec: "scan", Seed: req.Seed, Workers: 1, Duration: 2})
}

// Sessions lists the service's sessions, then the slow runs.
func (c *slowCore) Sessions() []api.SessionInfo {
	out := c.Service.Sessions()
	c.mu.Lock()
	for _, r := range c.runs {
		out = append(out, r.info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelSession cancels a slow run, or else the service's session.
func (c *slowCore) CancelSession(id int64) bool {
	c.mu.Lock()
	r, ok := c.runs[id]
	c.mu.Unlock()
	if !ok {
		return c.Service.CancelSession(id)
	}
	r.cancel(api.ErrSessionCancelled)
	return true
}

// TestEmptyClusterAnswers503: the empty-ring satellite end to end —
// a proxy with every backend removed answers 503 (never a panic),
// and recovers the moment a backend is added through the admin
// route.
func TestEmptyClusterAnswers503(t *testing.T) {
	cl, err := cluster.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(serve.NewProxyMux(cl, cl))
	t.Cleanup(proxy.Close)

	// In-process: the error wraps router.ErrEmptyRing.
	if _, err := cl.Generate(t.Context(), api.GenerateRequest{Spec: "scan"}); !errors.Is(err, router.ErrEmptyRing) {
		t.Fatalf("Generate on empty cluster: err = %v, want ErrEmptyRing", err)
	}

	// Over the wire: 503 with the error envelope.
	resp := postJSON(t, proxy.URL+"/v1/generate", api.GenerateRequest{Spec: "scan", Workers: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster generate: status %d, want 503", resp.StatusCode)
	}

	// Streams and analyzes degrade identically.
	for _, route := range []string{"/v1/generate/stream", "/v1/analyze"} {
		r := postJSON(t, proxy.URL+route, api.GenerateRequest{Spec: "scan", Window: 2})
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on empty cluster: status %d, want 503", route, r.StatusCode)
		}
	}

	// Recovery: add a live backend through the admin surface.
	_, backend := newBackend(t)
	add := postJSON(t, proxy.URL+"/v1/cluster/add", map[string]string{"backend": backend.URL})
	if add.StatusCode != http.StatusOK {
		t.Fatalf("cluster add: status %d", add.StatusCode)
	}
	if got := decode[serve.MembershipResult](t, add); len(got.Backends) != 1 {
		t.Fatalf("backends after add = %v", got.Backends)
	}
	ok := postJSON(t, proxy.URL+"/v1/generate",
		api.GenerateRequest{Spec: "scan", Seed: 1, Workers: 1, Duration: 2})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("generate after recovery: status %d", ok.StatusCode)
	}
}

// TestMembershipAdminSurface: the add/remove routes validate input
// and keep the backend list coherent.
func TestMembershipAdminSurface(t *testing.T) {
	f := newFixture(t, 2)

	resp, err := http.Get(f.proxy.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := decode[serve.MembershipResult](t, resp); len(got.Backends) != 2 {
		t.Fatalf("initial backends = %v", got.Backends)
	}

	// A garbage URL is the caller's fault.
	bad := postJSON(t, f.proxy.URL+"/v1/cluster/add", map[string]string{"backend": "not a url"})
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("add garbage URL: status %d, want 400", bad.StatusCode)
	}
	// Removing a non-member is a 404.
	miss := postJSON(t, f.proxy.URL+"/v1/cluster/remove", map[string]string{"backend": "http://127.0.0.1:1"})
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("remove non-member: status %d, want 404", miss.StatusCode)
	}
	// Re-adding an existing member is idempotent.
	dup := postJSON(t, f.proxy.URL+"/v1/cluster/add", map[string]string{"backend": f.backends[0].URL})
	if dup.StatusCode != http.StatusOK {
		t.Errorf("idempotent re-add: status %d", dup.StatusCode)
	}
	if got := f.cl.Backends(); len(got) != 2 {
		t.Errorf("backends after idempotent re-add = %v", got)
	}

	// Remove one for real: an idle backend drains instantly.
	rm := postJSON(t, f.proxy.URL+"/v1/cluster/remove", map[string]string{"backend": f.backends[1].URL})
	if rm.StatusCode != http.StatusOK {
		t.Fatalf("remove member: status %d", rm.StatusCode)
	}
	got := decode[serve.MembershipResult](t, rm)
	if len(got.Backends) != 1 || got.Drained == nil || !*got.Drained {
		t.Fatalf("remove result = %+v", got)
	}
}

// TestMembershipChangeUnderLoad is the acceptance scenario: a live
// backend add and remove while concurrent clients hammer the proxy,
// with zero failed requests — in-flight work on the departing
// backend drains, keys move only to the new member, and routing
// never produces an error window.
func TestMembershipChangeUnderLoad(t *testing.T) {
	f := newFixture(t, 2)
	_, extra := newBackend(t)

	specs := []string{"scan", "ddos", "background", "worm", "exfil", "beacon"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var total, failures atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := api.GenerateRequest{
					Spec: specs[rng.Intn(len(specs))], Seed: int64(rng.Intn(4)),
					Workers: 1, Duration: 4, Window: 2,
				}
				data, _ := json.Marshal(req)
				resp, err := http.Post(f.proxy.URL+"/v1/generate", "application/json", bytes.NewReader(data))
				total.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(g)
	}

	// Let the load warm up, then resize the ring both ways under it.
	time.Sleep(200 * time.Millisecond)
	if err := f.cl.AddBackend(extra.URL); err != nil {
		t.Errorf("add under load: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := f.cl.RemoveBackend(extra.URL); err != nil {
		t.Errorf("remove under load: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if total.Load() == 0 {
		t.Fatal("load loop issued no requests")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across the membership change", failures.Load(), total.Load())
	}
	if got := f.cl.Backends(); len(got) != 2 {
		t.Fatalf("backends after add+remove = %v", got)
	}
}

// TestRemoveBackendDrainsInflight: removing a backend with a run in
// flight blocks until that run completes (bounded by the drain
// timeout), and the in-flight request itself succeeds.
func TestRemoveBackendDrainsInflight(t *testing.T) {
	spec := slowClusterSpec
	f := newFixture(t, 1)

	var reqErr error
	var reqDone atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, reqErr = f.cl.Generate(t.Context(),
			api.GenerateRequest{Spec: spec, Seed: 1, Workers: 1})
		reqDone.Store(true)
	}()

	// Wait until the run is visibly in flight on the backend.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.svcs[0].Sessions()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never appeared in the backend's session list")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained, err := f.cl.RemoveBackend(f.backends[0].URL)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if !drained {
		t.Error("remove reported an incomplete drain for a finishing run")
	}
	if !reqDone.Load() {
		t.Error("RemoveBackend returned before the in-flight run completed")
	}
	<-done
	if reqErr != nil {
		t.Errorf("in-flight run failed during drain: %v", reqErr)
	}

	// The ring is now empty: the next request degrades, not panics.
	if _, err := f.cl.Generate(t.Context(), api.GenerateRequest{Spec: "scan"}); !errors.Is(err, router.ErrEmptyRing) {
		t.Errorf("post-drain generate err = %v, want ErrEmptyRing", err)
	}
}

// TestClusterStatsAggregation: the proxy's /v1/stats reports the
// live backends' summed counters plus one entry per backend — not the
// proxy's own empty state.
func TestClusterStatsAggregation(t *testing.T) {
	f := newFixture(t, 2)

	// Warm 16 distinct runs; with 128 vnodes both backends get some.
	cached := 0
	for seed := int64(0); seed < 16; seed++ {
		resp := postJSON(t, f.proxy.URL+"/v1/generate",
			api.GenerateRequest{Spec: "scan", Seed: seed, Workers: 1, Duration: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		io := decode[api.GenerateResult](t, resp)
		if !io.CacheHit {
			cached++
		}
	}

	resp, err := http.Get(f.proxy.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rep := decode[api.StatsReport](t, resp)

	if rep.Version != api.Version {
		t.Errorf("stats version = %q", rep.Version)
	}
	if rep.Cluster == nil {
		t.Fatal("proxy stats carry no cluster rollup")
	}
	if len(rep.Cluster.Backends) != 2 {
		t.Fatalf("cluster rollup lists %d backends, want 2", len(rep.Cluster.Backends))
	}
	totalLen, totalMisses := 0, uint64(0)
	for _, b := range rep.Cluster.Backends {
		if b.Error != "" {
			t.Errorf("backend %s reported a probe error: %s", b.Backend, b.Error)
		}
		if b.Backend == "" {
			t.Error("backend entry carries no backend URL")
		}
		if b.Cache.Len == 0 {
			t.Errorf("backend %s holds no cached runs; the ring sent it nothing", b.Backend)
		}
		totalLen += b.Cache.Len
		totalMisses += b.Cache.Misses
	}
	if totalLen != cached {
		t.Errorf("backends hold %d cached runs, want %d", totalLen, cached)
	}
	if rep.Cache.Len != cached || rep.Cache.Misses != totalMisses {
		t.Errorf("cluster totals = len %d misses %d, want %d and %d", rep.Cache.Len, rep.Cache.Misses, cached, totalMisses)
	}

	// A dead backend degrades its rollup entry, not the whole report.
	f.backends[1].Close()
	rep2 := f.cl.Stats()
	if rep2.Cluster == nil || len(rep2.Cluster.Backends) != 2 {
		t.Fatal("stats with a dead backend lost the rollup")
	}
	dead, liveLen := 0, 0
	for _, b := range rep2.Cluster.Backends {
		if b.Error != "" {
			dead++
		} else {
			liveLen += b.Cache.Len
		}
	}
	if dead != 1 {
		t.Errorf("%d backends report probe errors, want 1", dead)
	}
	if rep2.Cache.Len != liveLen {
		t.Errorf("totals with a dead backend hold %d cached runs, want the live backend's %d", rep2.Cache.Len, liveLen)
	}
}

// TestClusterSessionsTagBackends: merged session lists name the
// process holding each run — IDs alone are ambiguous across
// processes.
func TestClusterSessionsTagBackends(t *testing.T) {
	spec := slowClusterSpec
	f := newFixture(t, 2)

	done := make(chan error, 1)
	go func() {
		_, err := f.cl.Generate(t.Context(), api.GenerateRequest{Spec: spec, Seed: 2, Workers: 1})
		done <- err
	}()
	var sessions []api.SessionInfo
	deadline := time.Now().Add(5 * time.Second)
	for {
		sessions = f.cl.Sessions()
		if len(sessions) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(sessions) != 1 {
		t.Fatalf("cluster reports %d sessions, want 1", len(sessions))
	}
	if sessions[0].Backend == "" {
		t.Error("merged session carries no backend tag")
	}
	if !f.cl.CancelSession(sessions[0].ID) {
		t.Error("CancelSession found nothing")
	}
	wantCancelled(t, <-done)
}

// TestProxyRouteListing keeps the proxy's index honest about the
// membership surface.
func TestProxyRouteListing(t *testing.T) {
	f := newFixture(t, 1)
	resp, err := http.Get(f.proxy.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	idx := decode[map[string]string](t, resp)
	for _, want := range []string{"/v1/cluster/add", "/v1/cluster/remove", "/v1/campaign", "DELETE /v1/sessions/{id}"} {
		if !bytes.Contains([]byte(idx["routes"]), []byte(want)) {
			t.Errorf("proxy route listing omits %s: %q", want, idx["routes"])
		}
	}
}
