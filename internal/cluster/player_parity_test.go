package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/player"
	"repro/internal/serve"
)

// playerScript is the scripted flow the parity test replays against
// every topology: happy path, every error class, and the dashboard.
// Player responses carry no timings or cache markers, so the bodies
// must be byte-identical — stricter than the generate parity sweep.
func playerScript() []struct {
	name, method, path, body string
} {
	return []struct {
		name, method, path, body string
	}{
		{"create", "POST", "/v1/player", `{"id":"alice","name":"Alice"}`},
		{"duplicate create", "POST", "/v1/player", `{"id":"alice"}`},
		{"bad id", "POST", "/v1/player", `{"id":"Not Valid"}`},
		{"get", "GET", "/v1/player/alice", ""},
		{"unknown player", "GET", "/v1/player/ghost", ""},
		{"attempt", "POST", "/v1/player/alice/attempt", `{"pattern":"fig9c-ddos-attack"}`},
		{"submit", "POST", "/v1/player/alice/attempt/1", `{"answer":0}`},
		{"replayed submit", "POST", "/v1/player/alice/attempt/1", `{"answer":0}`},
		{"progress", "GET", "/v1/player/alice/progress", ""},
		{"locked unit", "POST", "/v1/player/alice/progress", `{"unit":"timeline"}`},
		{"advance", "POST", "/v1/player/alice/progress", `{"unit":"overview"}`},
		{"get after advance", "GET", "/v1/player/alice", ""},
		{"mastery", "GET", "/v1/player/mastery", ""},
	}
}

// runPlayerScript replays the script against one base URL and returns
// each step's status line plus raw body.
func runPlayerScript(t *testing.T, base string) []string {
	t.Helper()
	var out []string
	for _, s := range playerScript() {
		req, err := http.NewRequest(s.method, base+s.path, strings.NewReader(s.body))
		if err != nil {
			t.Fatal(err)
		}
		if s.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", s.name, err)
		}
		out = append(out, fmt.Sprintf("%s: %d %s %s", s.name, resp.StatusCode,
			resp.Header.Get("Content-Type"), body))
	}
	return out
}

// TestPlayerFlowParityAcrossTopologies is the player half of the
// parity contract: the identical scripted flow against a single
// process and a 2-backend proxy produces byte-identical responses at
// every step — success and every error status alike (the 404/409
// splice-reconstruction through the proxy is what this pins).
func TestPlayerFlowParityAcrossTopologies(t *testing.T) {
	_, direct := newBackend(t)
	f := newFixture(t, 2)

	want := runPlayerScript(t, direct.URL)
	for name, base := range map[string]string{"proxy": f.proxy.URL} {
		got := runPlayerScript(t, base)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s diverges from direct at step %d:\n direct: %s\n %s: %s",
					name, i, want[i], name, got[i])
			}
		}
	}
}

// TestPlayerRateLimitThroughProxy: a backend's 429 crosses the proxy
// hop intact — same status, a Retry-After header that is exactly the
// body's millisecond wait rounded up to whole seconds, and the
// sentinel-prefixed message rebuilt from retry_after_ms.
func TestPlayerRateLimitThroughProxy(t *testing.T) {
	eng := player.NewEngine(player.NewMemStore(),
		player.WithLimiter(player.NewLimiter(0.001, 1, 16)))
	svc := api.New(api.WithPlayers(eng))
	backend := httptest.NewServer(serve.NewMux(svc))
	t.Cleanup(backend.Close)
	cl, err := cluster.New([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(serve.NewProxyMux(cl, cl))
	t.Cleanup(proxy.Close)

	// The burst of 1 is spent on the enroll; everything after is 429.
	if resp := postJSON(t, proxy.URL+"/v1/player", api.PlayerCreateRequest{ID: "greedy"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create through proxy: status %d", resp.StatusCode)
	}
	limited, err := http.Get(proxy.URL + "/v1/player/greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer limited.Body.Close()
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", limited.StatusCode)
	}
	body := decode[struct {
		Error        string `json:"error"`
		Version      string `json:"version"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}](t, limited)
	if body.Version != api.Version || body.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope = %+v", body)
	}
	// The message is a pure function of the wait, so the proxy's
	// reconstruction from retry_after_ms must reproduce it exactly.
	want := (&player.RateLimitError{RetryAfter: time.Duration(body.RetryAfterMS) * time.Millisecond}).Error()
	if body.Error != want {
		t.Errorf("429 message = %q, want %q", body.Error, want)
	}
	secs, err := strconv.Atoi(limited.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After = %q: %v", limited.Header.Get("Retry-After"), err)
	}
	if ceil := max((body.RetryAfterMS+999)/1000, 1); int64(secs) != ceil {
		t.Errorf("Retry-After = %ds, want ceil(%dms) = %d", secs, body.RetryAfterMS, ceil)
	}
}
