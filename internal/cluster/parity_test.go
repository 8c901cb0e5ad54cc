package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/netsim"
	"repro/internal/serve"
)

// catalogNames lists the scenario catalog.
func catalogNames() []string {
	var names []string
	for _, s := range netsim.Scenarios() {
		names = append(names, s.Name())
	}
	return names
}

// composedSpecs derives n deterministic pseudo-random compositions
// over the catalog, exercising every combinator the spec grammar
// offers (nested included).
func composedSpecs(n int, names []string) []string {
	rng := rand.New(rand.NewSource(9))
	pick := func() string { return names[rng.Intn(len(names))] }
	factors := []string{"0.5", "1.5", "2"}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var s string
		switch i % 5 {
		case 0:
			s = fmt.Sprintf("overlay(%s, %s)", pick(), pick())
		case 1:
			// Offsets stay well under the request duration so the final
			// step always gets time (a zero-length step is a 4xx).
			s = fmt.Sprintf("sequence(%s@%ds, %s)", pick(), 2+rng.Intn(3), pick())
		case 2:
			s = fmt.Sprintf("dilate(%s, %s)", pick(), factors[rng.Intn(len(factors))])
		case 3:
			s = fmt.Sprintf("amplify(overlay(%s, %s), %d)", pick(), pick(), 2+rng.Intn(2))
		case 4:
			s = fmt.Sprintf("overlay(%s, sequence(%s@%ds, dilate(%s, 2)))",
				pick(), pick(), 2+rng.Intn(2), pick())
		}
		out = append(out, s)
	}
	return out
}

// normalizeBody strips the only legitimately nondeterministic fields
// — wall-clock timings and the cache-hit marker — and re-marshals.
// Everything else must be byte-identical between a direct twserve
// response and the same request through the proxy hop: Go's JSON
// float round-trip is exact, so the proxy's decode→re-encode of the
// backend body cannot change a single digit.
func normalizeBody(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("normalize: %v\nbody: %.200s", err, body)
	}
	delete(m, "timings")
	delete(m, "cache_hit")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func postBody(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestProxyBatchParity is the parity satellite's batch half: for the
// full catalog plus 20 random composed specs, generate / analyze /
// module responses through a two-backend proxy are bit-identical
// (modulo timings and cache markers) to a single-process twserve.
func TestProxyBatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is long under -short")
	}
	_, ref := newBackend(t) // single-process reference
	f := newFixture(t, 2)

	names := catalogNames()
	if len(names) == 0 {
		t.Fatal("empty scenario catalog")
	}
	specs := append(append([]string{}, names...), composedSpecs(20, names)...)

	for i, spec := range specs {
		req := api.GenerateRequest{
			Spec: spec, Seed: int64(i + 1), Hosts: 30,
			Duration: 6, Rate: 40, Workers: 1,
			IncludeMatrices: i%7 == 0,
		}
		wantCode, wantBody := postBody(t, ref.URL+"/v1/generate", req)
		gotCode, gotBody := postBody(t, f.proxy.URL+"/v1/generate", req)
		if wantCode != http.StatusOK || gotCode != wantCode {
			t.Fatalf("%s: status direct %d vs proxy %d", spec, wantCode, gotCode)
		}
		if want, got := normalizeBody(t, wantBody), normalizeBody(t, gotBody); want != got {
			t.Errorf("%s: generate diverges through the proxy\ndirect: %.300s\nproxy:  %.300s", spec, want, got)
		}

		if i%3 != 0 {
			continue
		}
		areq := api.AnalyzeRequest{Spec: spec, Seed: int64(i + 1), Hosts: 30, Duration: 6, Rate: 40, Workers: 1}
		wantCode, wantBody = postBody(t, ref.URL+"/v1/analyze", areq)
		gotCode, gotBody = postBody(t, f.proxy.URL+"/v1/analyze", areq)
		if wantCode != http.StatusOK || gotCode != wantCode {
			t.Fatalf("%s: analyze status direct %d vs proxy %d", spec, wantCode, gotCode)
		}
		if want, got := normalizeBody(t, wantBody), normalizeBody(t, gotBody); want != got {
			t.Errorf("%s: analyze diverges through the proxy", spec)
		}
	}

	// Module and campaign ride the same pipe; spot-check both.
	mreq := api.ModuleRequest{Spec: names[0], Seed: 3, Hosts: 24, Duration: 6, Rate: 40}
	_, wantBody := postBody(t, ref.URL+"/v1/module", mreq)
	_, gotBody := postBody(t, f.proxy.URL+"/v1/module", mreq)
	if normalizeBody(t, wantBody) != normalizeBody(t, gotBody) {
		t.Error("module response diverges through the proxy")
	}
	creq := api.CampaignRequest{Spec: "overlay(" + names[0] + ", " + names[len(names)-1] + ")",
		Window: 2, Seed: 4, Hosts: 24, Duration: 6, Rate: 40}
	wantCode, wantBody := postBody(t, ref.URL+"/v1/campaign", creq)
	gotCode, gotBody := postBody(t, f.proxy.URL+"/v1/campaign", creq)
	if wantCode != http.StatusOK || gotCode != wantCode {
		t.Fatalf("campaign status direct %d vs proxy %d", wantCode, gotCode)
	}
	if normalizeBody(t, wantBody) != normalizeBody(t, gotBody) {
		t.Error("campaign response diverges through the proxy")
	}

	// Catalog itself is served verbatim from a backend.
	refCat, _ := http.Get(ref.URL + "/v1/catalog")
	proxyCat, _ := http.Get(f.proxy.URL + "/v1/catalog")
	wantBody, _ = io.ReadAll(refCat.Body)
	gotBody, _ = io.ReadAll(proxyCat.Body)
	refCat.Body.Close()
	proxyCat.Body.Close()
	if !bytes.Equal(wantBody, gotBody) {
		t.Error("catalog diverges through the proxy")
	}
}

// streamLines posts a stream request and returns the raw NDJSON
// lines.
func streamLines(t *testing.T, url string, req api.GenerateRequest) []string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/generate/stream", "application/x-ndjson", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %.200s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), api.MaxFrameBytes+1024)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestProxyStreamParity is the parity satellite's streaming half:
// the proxy's pass-through re-encode leaves every meta and window
// frame byte-identical to the single-process stream, and the summary
// frame identical after timing normalization.
func TestProxyStreamParity(t *testing.T) {
	_, ref := newBackend(t)
	f := newFixture(t, 2)

	names := catalogNames()
	specs := append([]string{names[0], names[len(names)/2]},
		"overlay("+names[0]+", sequence("+names[1%len(names)]+"@3s, "+names[0]+"))")
	for i, spec := range specs {
		req := api.GenerateRequest{
			Spec: spec, Seed: int64(40 + i), Hosts: 30,
			Duration: 8, Rate: 40, Window: 2, Workers: 1,
		}
		want := streamLines(t, ref.URL, req)
		got := streamLines(t, f.proxy.URL, req)
		if len(want) != len(got) {
			t.Fatalf("%s: direct stream has %d frames, proxy %d", spec, len(want), len(got))
		}
		if len(want) < 3 {
			t.Fatalf("%s: degenerate stream of %d frames", spec, len(want))
		}
		for j := range want {
			var frame struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(want[j]), &frame); err != nil {
				t.Fatal(err)
			}
			if frame.Type == api.FrameError {
				t.Fatalf("%s: direct stream errored: %.200s", spec, want[j])
			}
			if frame.Type != api.FrameSummary {
				if want[j] != got[j] {
					t.Errorf("%s: frame %d (%s) diverges through the proxy\ndirect: %.200s\nproxy:  %.200s",
						spec, j, frame.Type, want[j], got[j])
				}
				continue
			}
			// Summary frames carry wall-clock timings; normalize those.
			if w, g := normalizeStreamSummary(t, want[j]), normalizeStreamSummary(t, got[j]); w != g {
				t.Errorf("%s: summary frame diverges through the proxy\ndirect: %.300s\nproxy:  %.300s", spec, w, g)
			}
		}
	}
}

func normalizeStreamSummary(t *testing.T, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	if sum, ok := m["summary"].(map[string]any); ok {
		delete(sum, "timings")
		delete(sum, "cache_hit")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestProxyWarmAffinity: the whole point of ring routing by
// RouteKey — a respelled spec and the analyze twin of a generate
// both land on the backend already holding the run, and come back as
// cache hits through the proxy.
func TestProxyWarmAffinity(t *testing.T) {
	f := newFixture(t, 2)

	canonical := api.GenerateRequest{Spec: "overlay(background, scan)", Seed: 7, Hosts: 30, Duration: 6, Rate: 40, Workers: 1}
	respelled := api.GenerateRequest{Spec: "overlay( background ,  scan )", Seed: 7, Hosts: 30, Duration: 6, Rate: 40, Workers: 1}

	first := postJSON(t, f.proxy.URL+"/v1/generate", canonical)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("cold generate: status %d", first.StatusCode)
	}
	if h := first.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("cold generate X-Cache = %q, want miss", h)
	}
	warm := postJSON(t, f.proxy.URL+"/v1/generate", respelled)
	if h := warm.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("respelled warm generate X-Cache = %q, want hit (affinity lost)", h)
	}

	// Generate → Analyze affinity across the same ring key.
	analyze := postJSON(t, f.proxy.URL+"/v1/analyze",
		api.AnalyzeRequest{Spec: canonical.Spec, Seed: 7, Hosts: 30, Duration: 6, Rate: 40, Workers: 1})
	if analyze.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", analyze.StatusCode)
	}
	if res := decode[api.AnalyzeResult](t, analyze); !res.CacheHit {
		t.Error("analyze of a generated spec missed the warm cache through the proxy")
	}
}

// rawAnswer is what the error parity contract compares: status,
// Content-Type, Retry-After and the body, byte for byte.
func rawAnswer(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d content-type=%q retry-after=%q %s", resp.StatusCode,
		resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), body)
}

// cancelledRun starts a slow generate against base, cancels it
// through base's DELETE /v1/sessions/{id} and returns the run's
// answer.
func cancelledRun(t *testing.T, base, spec string) string {
	t.Helper()
	type answer struct {
		resp *http.Response
		err  error
	}
	run := make(chan answer, 1)
	go func() {
		resp, err := http.Post(base+"/v1/generate", "application/json",
			strings.NewReader(`{"spec":"`+spec+`","seed":9,"workers":1}`))
		run <- answer{resp, err}
	}()
	var sessions []api.SessionInfo
	for deadline := time.Now().Add(5 * time.Second); len(sessions) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: run never appeared in /v1/sessions", base)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		sessions = decode[[]api.SessionInfo](t, resp)
		resp.Body.Close()
	}
	del, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", base, sessions[0].ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[serve.CancelResult](t, resp); !got.Cancelled {
		t.Fatalf("%s: DELETE found no session %d", base, sessions[0].ID)
	}
	resp.Body.Close()
	a := <-run
	if a.err != nil {
		t.Fatal(a.err)
	}
	return rawAnswer(t, a.resp)
}

// TestProxyErrorParity: every batch and stream error class the
// player script does not reach answers through the proxy exactly as
// it does direct — status, Content-Type, Retry-After and body.
func TestProxyErrorParity(t *testing.T) {
	spec := slowClusterSpec
	_, direct := newBackend(t)
	f := newFixture(t, 2)

	cases := []struct {
		name, path, body string
		status           int
	}{
		{"generate, bad spec", "/v1/generate", `{"spec":"no-such-scenario"}`, http.StatusBadRequest},
		{"analyze, spec and matrix", "/v1/analyze", `{"spec":"scan","matrix":[[0,1],[1,0]]}`, http.StatusBadRequest},
		{"module, unknown pattern", "/v1/module", `{"pattern":"no-such-pattern"}`, http.StatusBadRequest},
		{"campaign, window 0", "/v1/campaign", `{"spec":"scan","window":0}`, http.StatusBadRequest},
		{"stream, bad spec", "/v1/generate/stream", `{"spec":"no-such-scenario","window":2}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		var answers [2]string
		for i, base := range []string{direct.URL, f.proxy.URL} {
			resp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = rawAnswer(t, resp)
		}
		if want := fmt.Sprint(c.status); !strings.HasPrefix(answers[0], want+" ") {
			t.Errorf("%s: direct answered %s, want status %s", c.name, answers[0], want)
		}
		if answers[0] != answers[1] {
			t.Errorf("%s diverges through the proxy:\n direct: %s\n proxy:  %s", c.name, answers[0], answers[1])
		}
	}

	want, got := cancelledRun(t, direct.URL, spec), cancelledRun(t, f.proxy.URL, spec)
	if !strings.HasPrefix(want, "409 ") {
		t.Errorf("cancelled run: direct answered %s, want status 409", want)
	}
	if want != got {
		t.Errorf("cancelled run diverges through the proxy:\n direct: %s\n proxy:  %s", want, got)
	}
}
