package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

func testTransport(t *testing.T, base string) *transport {
	t.Helper()
	norm, err := normalizeBase(base)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(norm)
	t.Cleanup(tr.client.CloseIdleConnections)
	return tr
}

func generate(ctx context.Context, tr *transport, req api.GenerateRequest) (*api.GenerateResult, error) {
	var res api.GenerateResult
	if err := tr.do(ctx, http.MethodPost, "/v1/generate", req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// TestRemoteWorkerRetriesTransportFailure: a connection severed
// before any response bytes is retried for idempotent requests — the
// deterministic engine makes a replayed generate harmless — and the
// second attempt succeeds.
func TestRemoteWorkerRetriesTransportFailure(t *testing.T) {
	inner := serve.NewMux(api.New())
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Sever the connection mid-request: the client sees a
			// transport error with no HTTP status.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	tr := testTransport(t, srv.URL)
	tr.retries, tr.backoff = 2, time.Millisecond

	res, err := generate(t.Context(), tr, api.GenerateRequest{Spec: "scan", Seed: 1, Workers: 1, Duration: 2})
	if err != nil {
		t.Fatalf("generate after one severed connection: %v", err)
	}
	if res.Events == 0 {
		t.Error("retried generate returned an empty run")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend saw %d calls, want 2 (one failure + one retry)", got)
	}
}

// TestRemoteWorkerStreamNeverRetries: streams are not idempotent at
// the wire level (frames may already have been emitted), so a
// severed stream connection surfaces the error instead of replaying.
func TestRemoteWorkerStreamNeverRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(srv.Close)

	tr := testTransport(t, srv.URL)
	tr.retries, tr.backoff = 3, time.Millisecond

	err := tr.stream(t.Context(), api.GenerateRequest{Spec: "scan", Window: 2, Workers: 1},
		func(api.StreamFrame) error { return nil })
	if err == nil {
		t.Fatal("severed stream returned no error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d stream attempts, want 1 (streams must not retry)", got)
	}
}

// TestRemoteWorkerTruncatedStream: a stream that ends without a
// summary frame is a broken backend, not a clean EOF.
func TestRemoteWorkerTruncatedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// A lone meta frame, then EOF.
		api.EncodeFrame(w, api.StreamFrame{Type: api.FrameMeta, Meta: &api.StreamMeta{Version: api.Version, Spec: "scan", Window: 1, Windows: 1, Labels: []string{"A"}}})
	}))
	t.Cleanup(srv.Close)

	tr := testTransport(t, srv.URL)
	err := tr.stream(t.Context(), api.GenerateRequest{Spec: "scan", Window: 2},
		func(api.StreamFrame) error { return nil })
	if err == nil {
		t.Fatal("truncated stream (no summary) returned no error")
	}
}

// TestRemoteWorkerInflightCap: the per-backend semaphore bounds
// concurrent requests so one proxy cannot stampede a backend.
func TestRemoteWorkerInflightCap(t *testing.T) {
	var cur, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)

	tr := testTransport(t, srv.URL)
	tr.sem, tr.retries = make(chan struct{}, 2), 0

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := generate(context.Background(), tr, api.GenerateRequest{Spec: "scan"}); err != nil {
				t.Errorf("capped generate: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("backend observed %d concurrent requests, cap is 2", p)
	}
}

// TestOversizedBackendBodyNamesLimit: a 200 body one byte over the
// response bound fails with an error naming the bound, not with the
// truncated-JSON decode error reading only up to it would produce;
// a body exactly at the bound still decodes.
func TestOversizedBackendBodyNamesLimit(t *testing.T) {
	const limit = 1 << 20
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := limit + 1
		if r.URL.Path == "/at-bound" {
			n = limit
		}
		// A valid JSON object of exactly n bytes: {"pad":"xx…x"}.
		pad := n - len(`{"pad":""}`)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"pad":"` + strings.Repeat("x", pad) + `"}`))
	}))
	t.Cleanup(srv.Close)

	if got := newTransport("http://127.0.0.1:9").maxBody; got != 64<<20 {
		t.Fatalf("default response bound = %d, want 64 MiB", got)
	}
	tr := testTransport(t, srv.URL)
	tr.maxBody = limit

	var res struct {
		Pad string `json:"pad"`
	}
	if err := tr.do(t.Context(), http.MethodGet, "/at-bound", nil, &res, true); err != nil || len(res.Pad) == 0 {
		t.Fatalf("body at the bound: err = %v", err)
	}
	err := tr.do(t.Context(), http.MethodGet, "/", nil, &res, true)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1 MiB limit") {
		t.Fatalf("body over the bound: err = %v, want one naming the 1 MiB limit", err)
	}

	// Through a proxy the client gets a 500 that says so.
	c, err := New([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	c.members[0].maxBody = limit
	proxy := httptest.NewServer(serve.NewProxyMux(c, c))
	t.Cleanup(proxy.Close)
	resp, err := http.Post(proxy.URL+"/v1/generate", "application/json", strings.NewReader(`{"spec":"scan"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "exceeds the 1 MiB limit") {
		t.Errorf("proxy answered %d %s, want a 500 naming the limit", resp.StatusCode, body)
	}
}
