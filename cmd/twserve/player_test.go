package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/player"
)

// newPlayerServer stands up the route table over a service whose
// player engine the test controls — the `twserve -store dir` /
// `-player-rps` wiring in miniature.
func newPlayerServer(t *testing.T, eng *player.Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newMux(api.New(api.WithPlayers(eng))))
	t.Cleanup(srv.Close)
	return srv
}

// TestHealthzEndpoint: the liveness probe answers statically — no
// core round-trip, so CI's boot-wait can poll it before the first
// (possibly expensive) real request.
func TestHealthzEndpoint(t *testing.T) {
	for name, srv := range map[string]*httptest.Server{
		"single": newTestServer(t),
	} {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: healthz status = %d", name, resp.StatusCode)
		}
		h := decode[struct {
			Status  string `json:"status"`
			Version string `json:"version"`
		}](t, resp)
		resp.Body.Close()
		if h.Status != "ok" || h.Version != api.Version {
			t.Errorf("%s: healthz = %+v", name, h)
		}
	}
}

// TestPlayerEndpointsFlow drives the whole player surface over HTTP:
// enroll, duplicate enroll, attempt, submit, progress gating, and the
// mastery dashboard, with every error mapped to its status.
func TestPlayerEndpointsFlow(t *testing.T) {
	srv := newTestServer(t)

	// Enroll.
	created := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "bob", Name: "Bob"})
	if created.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", created.StatusCode)
	}
	view := decode[api.PlayerResult](t, created)
	if view.ID != "bob" || view.Version != api.Version {
		t.Fatalf("create view = %+v", view)
	}
	if len(view.Progress.Available) == 0 || view.Progress.Available[0] != "overview" {
		t.Fatalf("fresh enrollment available = %v, want [overview ...]", view.Progress.Available)
	}

	// Duplicate enroll is a conflict; a malformed ID never reaches the
	// store; an unknown player is 404 with the sentinel in the body.
	if resp := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "bob"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create status = %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "Bob!"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id create status = %d, want 400", resp.StatusCode)
	}
	missing, err := http.Get(srv.URL + "/v1/player/ghost")
	if err != nil {
		t.Fatal(err)
	}
	e := decode[struct {
		Error string `json:"error"`
	}](t, missing)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound || !strings.HasPrefix(e.Error, "player: not found") {
		t.Errorf("unknown player = %d %q", missing.StatusCode, e.Error)
	}

	// Quiz attempt on a figure-pattern module.
	started := postJSON(t, srv.URL+"/v1/player/bob/attempt",
		api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: "fig9c-ddos-attack"}})
	if started.StatusCode != http.StatusOK {
		t.Fatalf("attempt status = %d", started.StatusCode)
	}
	att := decode[api.AttemptResult](t, started)
	if att.Attempt.Attempt != 1 || len(att.Options) < 2 {
		t.Fatalf("attempt = %+v", att)
	}

	submitted := postJSON(t, srv.URL+"/v1/player/bob/attempt/1", api.AttemptSubmitRequest{Answer: 0})
	if submitted.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", submitted.StatusCode)
	}
	sub := decode[api.SubmitResult](t, submitted)
	if sub.Answered != 1 || sub.CorrectText == "" {
		t.Fatalf("submission = %+v", sub)
	}
	// Replaying the same attempt is a conflict; a garbage attempt
	// number never reaches the engine.
	if resp := postJSON(t, srv.URL+"/v1/player/bob/attempt/1", api.AttemptSubmitRequest{Answer: 0}); resp.StatusCode != http.StatusConflict {
		t.Errorf("replayed submit status = %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/player/bob/attempt/banana", api.AttemptSubmitRequest{Answer: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage attempt id status = %d, want 400", resp.StatusCode)
	}

	// Progress gating: timeline is locked until overview completes.
	if resp := postJSON(t, srv.URL+"/v1/player/bob/progress", api.ProgressRequest{Unit: "timeline"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("locked unit status = %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/player/bob/progress", api.ProgressRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unit-less advance status = %d, want 400", resp.StatusCode)
	}
	advanced := postJSON(t, srv.URL+"/v1/player/bob/progress", api.ProgressRequest{Unit: "overview"})
	if advanced.StatusCode != http.StatusOK {
		t.Fatalf("advance status = %d", advanced.StatusCode)
	}
	prog := decode[api.ProgressResult](t, advanced)
	if len(prog.Completed) != 1 || prog.Completed[0] != "overview" {
		t.Fatalf("progress after advance = %+v", prog)
	}

	// Mastery sees bob's graded attempt.
	mresp, err := http.Get(srv.URL + "/v1/player/mastery")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mast := decode[api.MasteryResult](t, mresp)
	if len(mast.Items) == 0 || mast.Items[0].Attempts == 0 {
		t.Fatalf("mastery = %+v", mast.Items)
	}
}

// TestPlayerDirStoreSurvivesRestart is the persistence acceptance
// check over HTTP: progress and history written through one server
// are served identically by a fresh server over the same directory.
func TestPlayerDirStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *httptest.Server {
		eng, err := newPlayerEngine("dir", dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return newPlayerServer(t, eng)
	}

	first := boot()
	if resp := postJSON(t, first.URL+"/v1/player", api.PlayerCreateRequest{ID: "ada", Name: "Ada"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	postJSON(t, first.URL+"/v1/player/ada/attempt",
		api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: "fig9c-ddos-attack"}}).Body.Close()
	if resp := postJSON(t, first.URL+"/v1/player/ada/attempt/1", api.AttemptSubmitRequest{Answer: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, first.URL+"/v1/player/ada/progress", api.ProgressRequest{Unit: "overview"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance status = %d", resp.StatusCode)
	}
	before, err := http.Get(first.URL + "/v1/player/ada")
	if err != nil {
		t.Fatal(err)
	}
	beforeView := decode[api.PlayerResult](t, before)
	before.Body.Close()
	first.Close()

	second := boot()
	after, err := http.Get(second.URL + "/v1/player/ada")
	if err != nil {
		t.Fatal(err)
	}
	afterView := decode[api.PlayerResult](t, after)
	after.Body.Close()
	if afterView.Answered != 1 || afterView.Answered != beforeView.Answered {
		t.Errorf("restart lost history: answered %d, want %d", afterView.Answered, beforeView.Answered)
	}
	if len(afterView.Progress.Completed) != 1 || afterView.Progress.Completed[0] != "overview" {
		t.Errorf("restart lost progress: %+v", afterView.Progress)
	}
	// Attempt numbering continues from the persisted history instead
	// of restarting at 1 (which would collide with the graded attempt).
	started := postJSON(t, second.URL+"/v1/player/ada/attempt",
		api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: "fig9c-ddos-attack"}})
	if att := decode[api.AttemptResult](t, started); att.Attempt.Attempt != 2 {
		t.Errorf("post-restart attempt id = %d, want 2", att.Attempt.Attempt)
	}
}

// TestPlayerRateLimitEndpoint: an exhausted player gets 429 with a
// parseable Retry-After and the exact wait in the body, while other
// players (and the operator's mastery dashboard) stay unthrottled.
func TestPlayerRateLimitEndpoint(t *testing.T) {
	eng := player.NewEngine(player.NewMemStore(),
		player.WithLimiter(player.NewLimiter(0.001, 2, player.DefaultMaxBuckets)))
	srv := newPlayerServer(t, eng)

	// Burst of 2: enroll + one read drain greedy's bucket.
	if resp := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "greedy"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/v1/player/greedy"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("second request status = %d", resp.StatusCode)
	}

	limited, err := http.Get(srv.URL + "/v1/player/greedy")
	if err != nil {
		t.Fatal(err)
	}
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", limited.StatusCode)
	}
	retry := limited.Header.Get("Retry-After")
	secs, err := strconv.Atoi(retry)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want whole seconds ≥ 1", retry)
	}
	body := decode[struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}](t, limited)
	limited.Body.Close()
	if !strings.HasPrefix(body.Error, "player: rate limited: retry in") || body.RetryAfterMS <= 0 {
		t.Errorf("429 body = %+v", body)
	}
	// The header is the body's wait rounded up to whole seconds.
	if want := (body.RetryAfterMS + 999) / 1000; int64(secs) != want && want >= 1 {
		t.Errorf("Retry-After = %d, want ceil(%dms) = %d", secs, body.RetryAfterMS, want)
	}

	// Another player is untouched by greedy's exhaustion.
	if resp := postJSON(t, srv.URL+"/v1/player", api.PlayerCreateRequest{ID: "patient"}); resp.StatusCode != http.StatusOK {
		t.Errorf("other player status = %d", resp.StatusCode)
	}
	// Mastery is an operator route; it bypasses the per-player limiter.
	if resp, err := http.Get(srv.URL + "/v1/player/mastery"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("mastery status = %d", resp.StatusCode)
	}
}

// TestNewPlayerEngineFlag pins the -store flag contract.
func TestNewPlayerEngineFlag(t *testing.T) {
	if _, err := newPlayerEngine("mem", "", 0, 0); err != nil {
		t.Errorf("mem store: %v", err)
	}
	if _, err := newPlayerEngine("dir", t.TempDir(), 1, 5); err != nil {
		t.Errorf("dir store: %v", err)
	}
	if _, err := newPlayerEngine("redis", "", 0, 0); err == nil {
		t.Error("unknown store accepted")
	}
}
