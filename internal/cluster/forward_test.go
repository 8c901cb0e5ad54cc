package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
)

// post sends a JSON request and returns the status, the X-Cache
// header and the raw body.
func post(t *testing.T, url string, req any) (int, string, []byte) {
	t.Helper()
	resp := postJSON(t, url, req)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

// TestProxiedHitIsBackendBytes: a warm generate and analyze through
// the proxy answer with exactly the bytes the owning backend writes
// for the same hit, timings and cache marker included, under
// X-Cache: hit.
func TestProxiedHitIsBackendBytes(t *testing.T) {
	f := newFixture(t, 1)
	backend := f.backends[0].URL
	cases := []struct {
		path string
		req  any
	}{
		{"/v1/generate", api.GenerateRequest{Spec: "ddos", Hosts: 24, Seed: 5, Duration: 6, Window: 3, IncludeMatrices: true}},
		{"/v1/generate", api.GenerateRequest{Spec: "ddos", Hosts: 24, Seed: 5, Duration: 6, Window: 3}},
		{"/v1/analyze", api.AnalyzeRequest{Spec: "scan", Hosts: 24, Seed: 5, Duration: 6}},
	}
	for _, c := range cases {
		if code, _, body := post(t, f.proxy.URL+c.path, c.req); code != http.StatusOK {
			t.Fatalf("%s prime: %d %s", c.path, code, body)
		}
		code, xc, got := post(t, f.proxy.URL+c.path, c.req)
		if code != http.StatusOK || xc != "hit" {
			t.Fatalf("%s through the proxy: status %d, X-Cache %q", c.path, code, xc)
		}
		_, _, want := post(t, backend+c.path, c.req)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: proxied hit differs from the backend's bytes\nproxy:   %.300s\nbackend: %.300s", c.path, got, want)
		}
	}
}

// TestProxyForwardsBackendBody: the proxy writes a backend's 200 body
// as it came, even where re-encoding the decoded result would lay it
// out differently, and takes X-Cache from the decoded marker.
func TestProxyForwardsBackendBody(t *testing.T) {
	bodies := map[string]string{
		"/v1/generate": `{"version":"` + api.Version + `","spec":"scan","hosts":10,"cache_hit":true}`,
		"/v1/analyze":  `{"version":"` + api.Version + `","source":"spec","hosts":10,"cache_hit":false}`,
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, bodies[r.URL.Path])
	}))
	t.Cleanup(fake.Close)
	cl, err := cluster.New([]string{fake.URL})
	if err != nil {
		t.Fatal(err)
	}
	proxy := newProxy(t, cl)

	code, xc, got := post(t, proxy.URL+"/v1/generate", api.GenerateRequest{Spec: "scan"})
	if code != http.StatusOK || xc != "hit" || string(got) != bodies["/v1/generate"] {
		t.Errorf("generate: status %d, X-Cache %q, body %s", code, xc, got)
	}
	code, xc, got = post(t, proxy.URL+"/v1/analyze", api.AnalyzeRequest{Spec: "scan"})
	if code != http.StatusOK || xc != "miss" || string(got) != bodies["/v1/analyze"] {
		t.Errorf("analyze: status %d, X-Cache %q, body %s", code, xc, got)
	}
}
