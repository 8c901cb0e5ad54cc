package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// newTestServer stands up the full route table over a fresh service.
func newTestServer(t *testing.T, opts ...api.Option) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newMux(api.New(opts...)))
	t.Cleanup(srv.Close)
	return srv
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

func TestCatalogEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	cat := decode[api.CatalogResult](t, resp)
	if cat.Version != api.Version || len(cat.Scenarios) < 8 || len(cat.Patterns) == 0 {
		t.Errorf("catalog = version %q, %d scenarios, %d patterns",
			cat.Version, len(cat.Scenarios), len(cat.Patterns))
	}
}

// TestGenerateEndpointCachesAcrossClients is the served classroom
// hot path: the second identical request is a cache hit, visible in
// both the X-Cache header and the response body.
func TestGenerateEndpointCachesAcrossClients(t *testing.T) {
	srv := newTestServer(t)
	req := api.GenerateRequest{Spec: "scan", Seed: 1, Workers: 1, Duration: 4, Window: 2}

	cold := postJSON(t, srv.URL+"/v1/generate", req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d", cold.StatusCode)
	}
	if h := cold.Header.Get("X-Cache"); h != "miss" {
		t.Errorf("cold X-Cache = %q", h)
	}
	coldRes := decode[api.GenerateResult](t, cold)
	if coldRes.CacheHit || coldRes.Events == 0 || len(coldRes.Windows) != 2 {
		t.Errorf("cold result = hit=%v events=%d windows=%d", coldRes.CacheHit, coldRes.Events, len(coldRes.Windows))
	}

	warm := postJSON(t, srv.URL+"/v1/generate", req)
	if h := warm.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("warm X-Cache = %q", h)
	}
	warmRes := decode[api.GenerateResult](t, warm)
	if !warmRes.CacheHit {
		t.Error("warm response body does not mark the cache hit")
	}
	if warmRes.Events != coldRes.Events || warmRes.Packets != coldRes.Packets {
		t.Error("warm result differs from cold result")
	}
}

func TestGenerateEndpointBadRequests(t *testing.T) {
	srv := newTestServer(t)
	for name, body := range map[string]string{
		"garbage json":     "{nope",
		"empty body":       "",
		"unknown scenario": `{"spec":"nope"}`,
		"negative rate":    `{"spec":"scan","rate":-1}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := decode[struct {
			Error string `json:"error"`
		}](t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message in body", name)
		}
	}
}

// TestGenerateEndpointCancellation: a client hanging up mid-request
// aborts the run server-side and leaves the cache unpoisoned.
func TestGenerateEndpointCancellation(t *testing.T) {
	srv := newTestServer(t)
	// Heavy enough to outlive the 20ms hangup below.
	body := `{"spec":"amplify(background, 200)","hosts":400,"duration":60,"workers":2}`

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/generate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request survived its cancelled context")
	}

	// The aborted run must not have been cached: a fresh stats probe
	// shows no entries.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decode[api.StatsReport](t, resp).Cache
	if stats.Len != 0 {
		t.Errorf("cancelled request left %d cache entries", stats.Len)
	}
}

func TestAnalyzeEndpointMatrixPath(t *testing.T) {
	srv := newTestServer(t)
	rows := make([][]int, 10)
	for i := range rows {
		rows[i] = make([]int, 10)
		if i != 3 {
			rows[i][3] = 9
		}
	}
	resp := postJSON(t, srv.URL+"/v1/analyze", api.AnalyzeRequest{Matrix: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	res := decode[api.AnalyzeResult](t, resp)
	if res.Source != "matrix" || res.Aggregate.Profile.NNZ != 9 || len(res.Supernodes) == 0 {
		t.Errorf("analyze result = %+v", res)
	}
}

func TestModuleEndpointReturnsValidModule(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/module", api.ModuleRequest{Spec: "ddos", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	m := decode[core.Module](t, resp)
	if issues := m.Validate(); !issues.OK() {
		t.Fatalf("served module invalid:\n%s", issues.Errs())
	}
	if !m.HasQuestion {
		t.Error("served module has no question")
	}
}

func TestSessionsAndRootEndpoints(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("sessions status = %d", resp.StatusCode)
	}
	if sessions := decode[[]api.SessionInfo](t, resp); len(sessions) != 0 {
		t.Errorf("idle server reports %d sessions", len(sessions))
	}

	root, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Body.Close()
	if root.StatusCode != http.StatusOK {
		t.Errorf("root status = %d", root.StatusCode)
	}
	missing, err := http.Get(srv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route status = %d, want 404", missing.StatusCode)
	}
}

// TestStatsEndpointReportsFleet: /v1/stats carries the process's one
// service's counters — the observability surface the load harness
// scrapes — with no cluster rollup and no per-backend breakdown.
func TestStatsEndpointReportsFleet(t *testing.T) {
	srv := newTestServer(t)
	// Warm a few specs so the counters are non-trivial.
	for _, spec := range []string{"scan", "ddos", "worm"} {
		resp := postJSON(t, srv.URL+"/v1/generate",
			api.GenerateRequest{Spec: spec, Seed: 1, Workers: 1, Duration: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", spec, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rep := decode[api.StatsReport](t, resp)
	if rep.Version != api.Version || rep.Cluster != nil {
		t.Fatalf("single-service stats = version %q, cluster %+v", rep.Version, rep.Cluster)
	}
	if rep.Cache.Len != 3 {
		t.Errorf("cache holds %d cached runs, want 3", rep.Cache.Len)
	}
}

// TestRootRouteListsStats keeps the index honest about the new route.
func TestRootRouteListsStats(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	idx := decode[map[string]string](t, resp)
	if !strings.Contains(idx["routes"], "/v1/stats") {
		t.Errorf("root route listing omits /v1/stats: %q", idx["routes"])
	}
}

// TestGenerateEndpointIncludeMatrices: the wire form can carry the
// dense grids when asked.
func TestGenerateEndpointIncludeMatrices(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/generate", api.GenerateRequest{
		Spec: "ddos", Seed: 2, Workers: 1, Duration: 4, Window: 2, IncludeMatrices: true,
	})
	res := decode[api.GenerateResult](t, resp)
	if len(res.Cells) != res.Hosts {
		t.Errorf("aggregate cells rows = %d, want %d", len(res.Cells), res.Hosts)
	}
	for _, w := range res.Windows {
		if len(w.Cells) != res.Hosts {
			t.Fatalf("window %d cells rows = %d, want %d", w.Index, len(w.Cells), res.Hosts)
		}
	}
	sum := 0
	for _, row := range res.Cells {
		if len(row) != res.Hosts {
			t.Fatalf("ragged aggregate cells")
		}
		for _, v := range row {
			sum += v
		}
	}
	if sum != res.Packets-windowDropped(res) {
		// Dropped packets never land in the matrix; everything else
		// must.
		t.Errorf("aggregate cells sum %d, packets %d (dropped %d)", sum, res.Packets, windowDropped(res))
	}
}

// windowDropped totals the dropped packets the windows report.
func windowDropped(res api.GenerateResult) int {
	total := 0
	for _, w := range res.Windows {
		total += w.Dropped
	}
	return total
}

// TestVersionPrefixIsStable pins the wire contract: every route
// lives under the version the api package declares.
func TestVersionPrefixIsStable(t *testing.T) {
	if api.Version != "v1" {
		t.Fatalf("api.Version = %q; bumping it breaks every client — do it deliberately and update this test", api.Version)
	}
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + fmt.Sprintf("/%s/catalog", api.Version))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("versioned catalog route status = %d", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: the body cap answers with the status code
// clients branch on, not a generic 400.
func TestOversizedBodyIs413(t *testing.T) {
	srv := newTestServer(t)
	big := strings.Repeat("x", 9<<20)
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// TestGenerateStreamEndpoint drives the NDJSON route end to end:
// right content type, a meta frame first, windows in order, a
// summary last, every line a valid frame.
func TestGenerateStreamEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/generate/stream", api.GenerateRequest{
		Spec: "ddos", Seed: 1, Duration: 20, Rate: 6, Window: 2.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	dec := api.NewFrameDecoder(resp.Body)
	var types []string
	nextWindow := 0
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(types), err)
		}
		types = append(types, f.Type)
		if f.Type == api.FrameWindow {
			if f.Window.Index != nextWindow {
				t.Fatalf("window %d arrived out of order (expected %d)", f.Window.Index, nextWindow)
			}
			nextWindow++
		}
	}
	if len(types) != 10 || types[0] != api.FrameMeta || types[len(types)-1] != api.FrameSummary {
		t.Fatalf("frame sequence = %v, want meta, 8 windows, summary", types)
	}
}

// TestGenerateStreamEndpointBadRequest: validation failures happen
// before any frame is written, so they arrive as a plain HTTP error
// exactly like the batch route.
func TestGenerateStreamEndpointBadRequest(t *testing.T) {
	srv := newTestServer(t)
	for name, body := range map[string]string{
		"no window":        `{"spec":"ddos"}`,
		"unknown scenario": `{"spec":"nope","window":5}`,
		"garbage json":     "{nope",
	} {
		resp, err := http.Post(srv.URL+"/v1/generate/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := decode[struct {
			Error string `json:"error"`
		}](t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", name)
		}
	}
}

// TestGenerateStreamEndpointHangup is the end-to-end cancellation
// contract: a client that disconnects after the first window stops
// the run server-side, the session registry drains, and a later
// batch request recomputes from cold — nothing partial was cached.
func TestGenerateStreamEndpointHangup(t *testing.T) {
	srv := newTestServer(t)
	body := `{"spec":"background","seed":3,"duration":3600,"rate":2,"window":5,"workers":2}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/generate/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dec := api.NewFrameDecoder(resp.Body)
	sawWindow := false
	for !sawWindow {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("stream ended before first window: %v", err)
		}
		sawWindow = f.Type == api.FrameWindow
	}
	// Hang up mid-stream.
	cancel()
	resp.Body.Close()

	// The server-side session must drain promptly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(srv.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		sessions := decode[[]api.SessionInfo](t, sresp)
		sresp.Body.Close()
		if len(sessions) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream session still alive after hangup: %+v", sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the cache must be untouched: the hangup inserted nothing.
	cresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if stats := decode[api.StatsReport](t, cresp).Cache; stats.Len != 0 {
		t.Errorf("hung-up stream left %d cache entries", stats.Len)
	}
}

// TestGenerateStreamEndpointBypassesCache pins the HTTP-level cache
// contract: streams neither hit nor populate the shared cache.
func TestGenerateStreamEndpointBypassesCache(t *testing.T) {
	srv := newTestServer(t)
	req := api.GenerateRequest{Spec: "scan", Seed: 1, Workers: 1, Duration: 4, Window: 2}

	// Prime the cache with a batch request.
	postJSON(t, srv.URL+"/v1/generate", req).Body.Close()

	// Stream the same request to completion.
	resp := postJSON(t, srv.URL+"/v1/generate/stream", req)
	dec := api.NewFrameDecoder(resp.Body)
	frames := 0
	for {
		if _, err := dec.Next(); err != nil {
			break
		}
		frames++
	}
	if frames != 4 {
		t.Fatalf("stream produced %d frames, want meta+2 windows+summary", frames)
	}

	cresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	stats := decode[api.StatsReport](t, cresp).Cache
	if stats.Len != 1 || stats.Hits != 0 {
		t.Errorf("stream touched the cache: %+v", stats)
	}
}

// TestPaddedPatternIDAccepted: /v1/module and a quiz attempt resolve
// a figure-pattern ID through the same lookup, so an ID with
// surrounding space is accepted by both.
func TestPaddedPatternIDAccepted(t *testing.T) {
	srv := newTestServer(t)
	const padded = " fig9c-ddos-attack "
	if resp := postJSON(t, srv.URL+"/v1/module", api.ModuleRequest{Pattern: padded}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/module: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "padded"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create player: status %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/v1/player/padded/attempt", map[string]string{"pattern": padded})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attempt: status %d", resp.StatusCode)
	}
}
