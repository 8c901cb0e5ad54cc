// Command twload drives a running twserve with a classroom session —
// concurrent clients each replaying a fixed round of requests — and
// reports per-class latency percentiles, throughput, cache hit rate
// and errors. It covers what the repo benchmark (perfbench) does not:
// load that outlasts a live cluster membership change, and synthetic
// players driven into the per-player rate limiter.
//
//	twload -addr http://localhost:8080 -duration 10s -concurrency 8 -json out.json
//
// A round holds each request class in its classroom share (see
// classes): warm (fixed runs, cache hits after first touch), cold
// (unique seeds, the compute-bound floor), composed (fixed spec-grammar
// runs), module (figure-pattern renders), stream (streaming generates)
// and, with -players N > 0, player flows over accounts load-p0 …
// load-p{N-1}. The sequence is a pure function of (client,
// concurrency, players); -duration only sets how many whole rounds
// each client completes. twload exits 1 when the run saw an error or
// delivered no requests, and CI gates its -json summary with jq.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/player"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "twserve base URL")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load (each client finishes its round)")
	concurrency := flag.Int("concurrency", 8, "concurrent client goroutines")
	players := flag.Int("players", 0, "synthetic player accounts to drive (0 disables the player class)")
	jsonOut := flag.String("json", "", "write the summary as JSON to this path (\"-\" for stdout)")
	flag.Parse()

	sum, err := run(context.Background(), config{*addr, *duration, *concurrency, *players})
	if err != nil {
		log.Fatalf("twload: %v", err)
	}
	fmt.Print(sum.String())
	if *jsonOut != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			log.Fatalf("twload: encode summary: %v", err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatalf("twload: write summary: %v", err)
		}
	}
	os.Exit(exitCode(sum))
}

// exitCode fails a run that saw an error or delivered nothing: an
// empty run (say, a zero -duration) must not pass as a clean one.
func exitCode(sum summary) int {
	if sum.Requests == 0 || sum.Errors > 0 {
		return 1
	}
	return 0
}

type config struct {
	addr        string
	duration    time.Duration
	concurrency int
	players     int
}

// classes is the round table, in the name order the summary lists
// classes in. Without players a round
// is 20 slots: warm 50 %, cold 20 %, composed 15 %, module 10 %,
// stream 5 %. Warm dominates because a classroom repeats the lesson's
// specs; cold keeps the compute path honest under the same load. With
// -players the round gains player slots: 25 % of all requests would
// be 20/3 slots, rounded up to 7, so player flows are 7 of 27 (26 %).
// A round holds 4 cold runs, which bounds how far a client overruns
// -duration.
var classes = []struct {
	name  string
	slots int
}{
	{"cold", 4}, {"composed", 3}, {"module", 2}, {"player", 7}, {"stream", 1}, {"warm", 10},
}

// Indices into classes.
const (
	classCold = iota
	classComposed
	classModule
	classPlayer
	classStream
	classWarm
)

// roundSlots lays the round table out as one round of class indices
// with smooth weighted round-robin, so each class's slots spread
// through the round instead of bunching (no two cold slots adjoin).
func roundSlots(players bool) []int {
	var active []int
	total := 0
	for c, cl := range classes {
		if c != classPlayer || players {
			active = append(active, c)
			total += cl.slots
		}
	}
	credit := make([]int, len(classes))
	out := make([]int, total)
	for s := range out {
		best := active[0]
		for _, c := range active {
			credit[c] += classes[c].slots
			if credit[c] > credit[best] {
				best = c
			}
		}
		credit[best] -= total
		out[s] = best
	}
	return out
}

// loadShape is the parameter block every generate-class request
// shares: a cold run is compute-bound (tens of ms against a ~1 ms
// cache hit, so the warm/cold p50 gap isolates caching), and a 10 s
// run still completes hundreds of them.
func loadShape(spec string, seed int64) api.GenerateRequest {
	return api.GenerateRequest{
		Spec: spec, Seed: seed, Hosts: 200,
		Duration: 60, Scale: 8, Window: 10, Workers: 1,
	}
}

// coldSpec is the composition every unique-seed cold request runs.
const coldSpec = "overlay(background, sequence(scan, ddos))"

// coldSeedBase puts cold seeds far past every fixed seed below, so no
// cold request can hit a warm or composed cache line.
const coldSeedBase = 1_000_000

// warmSet is the fixed lesson: the specs a classroom repeats, in the
// same shape as the cold class.
var warmSet = []api.GenerateRequest{
	loadShape("scan", 11),
	loadShape("ddos", 12),
	loadShape("background", 13),
	loadShape(coldSpec, 14),
}

// composedSet exercises the spec grammar and canonical keying (both
// spellings of the first spec are one cache line).
var composedSet = []string{
	"overlay(background, sequence(scan, ddos))",
	"overlay( background ,sequence( scan,ddos ) )",
	"amplify(sequence(beacon@5s, exfil), 2)",
}

// moduleSet is a rotation of figure-catalog patterns.
var moduleSet = []string{
	"fig6a-isolated-links", "fig6b-single-links",
	"fig6c-internal-supernode", "fig9c-ddos-attack",
}

// streamReq is the stream class's run. Streams bypass the result
// cache, so every stream recomputes; a lighter run keeps the stream
// share from dominating.
var streamReq = api.GenerateRequest{Spec: "ddos", Seed: 31, Hosts: 100, Duration: 30, Window: 10, Workers: 1}

// step is one request of a client's sequence: its class, and the
// generate body or the module pattern or player ID it sends.
type step struct {
	class int
	gen   api.GenerateRequest
	name  string
}

// clientRound is round r of client g's sequence: the round table
// rotated by g, so the clients stay out of phase. The i-th request of
// a class takes its fixed-set entry at i+g, and its cold seed or
// player account from k = i·concurrency + g, which no other (client,
// i) pair produces: cold seeds are unique without shared state.
func clientRound(g, concurrency, players, r int) []step {
	slots := roundSlots(players > 0)
	seen := make([]int, len(classes))
	steps := make([]step, len(slots))
	for j := range slots {
		c := slots[(j+g)%len(slots)]
		i := r*classes[c].slots + seen[c]
		seen[c]++
		k := i*concurrency + g
		st := &steps[j]
		st.class = c
		switch c {
		case classWarm:
			st.gen = warmSet[(i+g)%len(warmSet)]
		case classCold:
			st.gen = loadShape(coldSpec, int64(coldSeedBase+k))
		case classComposed:
			st.gen = loadShape(composedSet[(i+g)%len(composedSet)], 21)
		case classModule:
			st.name = moduleSet[(i+g)%len(moduleSet)]
		case classStream:
			st.gen = streamReq
		case classPlayer:
			st.name = fmt.Sprintf("load-p%d", k%players)
		}
	}
	return steps
}

// sample is one request's outcome.
type sample struct {
	class int
	ms    float64
	cache string // X-Cache marker; empty for routes without one
	err   error
}

// run drives the configured load and returns the summary. Each client
// runs whole rounds, checking the deadline only between them, and
// appends to its own sample slice; the slices merge after the run.
func run(ctx context.Context, cfg config) (summary, error) {
	cfg.concurrency = max(cfg.concurrency, 1)
	t := target{&http.Client{}, cfg.addr}
	if err := t.probe(ctx); err != nil {
		return summary{}, fmt.Errorf("probe %s: %w", cfg.addr, err)
	}

	perClient := make([][]sample, cfg.concurrency)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for g := range perClient {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; time.Now().Before(deadline); r++ {
				for _, st := range clientRound(g, cfg.concurrency, cfg.players, r) {
					t0 := time.Now()
					cache, err := t.do(ctx, st)
					ms := float64(time.Since(t0)) / float64(time.Millisecond)
					perClient[g] = append(perClient[g], sample{st.class, ms, cache, err})
				}
			}
		}(g)
	}
	wg.Wait()

	sum := summarize(perClient, time.Since(start))
	sum.Addr = cfg.addr
	sum.Concurrency = cfg.concurrency
	return sum, nil
}

// classStats summarizes one request class: count, errors, and the
// latency distribution in milliseconds.
type classStats struct {
	Class  string  `json:"class"`
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// CacheLookups counts the requests that carried an X-Cache header,
	// CacheHits those that were hits: the warm-affinity signal a proxy
	// run is gated on, even when latency happens to hide a miss.
	CacheHits    int `json:"cache_hits,omitempty"`
	CacheLookups int `json:"cache_lookups,omitempty"`
	// RateLimited counts the 429 answers, which are not errors.
	RateLimited int `json:"rate_limited,omitempty"`
}

// summary is one complete load run: the configuration that produced
// it, the aggregate outcome, and the per-class breakdown sorted by
// class name.
type summary struct {
	Addr        string       `json:"addr,omitempty"`
	Concurrency int          `json:"concurrency"`
	DurationSec float64      `json:"duration_sec"`
	Requests    int          `json:"requests"`
	Errors      int          `json:"errors"`
	Throughput  float64      `json:"throughput_rps"`
	Classes     []classStats `json:"classes"`
}

// percentile reads the p-th percentile (0 < p ≤ 100) from an
// ascending-sorted slice using the nearest-rank method — the
// conservative convention for latency reporting (p99 is a real
// observed sample, never an interpolation below one).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// summarize merges the clients' samples of a run that took elapsed
// wall-clock time. A 429 is the limiter doing its job: it is tallied as
// rate-limited and kept as a latency sample. Other failures count as
// errors and stay out of the latency distribution (an error return is
// usually fast; mixing it in would flatter the percentiles). A class
// whose every request failed still appears; one never issued does not.
func summarize(perClient [][]sample, elapsed time.Duration) summary {
	stats := make([]classStats, len(classes))
	lat := make([][]float64, len(classes))
	for _, s := range slices.Concat(perClient...) {
		st := &stats[s.class]
		st.Count++
		if errors.Is(s.err, errRateLimited) {
			st.RateLimited++
		} else if s.err != nil {
			st.Errors++
			continue
		}
		lat[s.class] = append(lat[s.class], s.ms)
		st.MeanMs += s.ms
		if s.cache != "" {
			st.CacheLookups++
			if s.cache == "hit" {
				st.CacheHits++
			}
		}
	}
	sum := summary{DurationSec: elapsed.Seconds()}
	for c, st := range stats {
		if st.Count == 0 {
			continue
		}
		st.Class = classes[c].name
		if l := lat[c]; len(l) > 0 {
			slices.Sort(l)
			st.MeanMs /= float64(len(l))
			st.P50Ms, st.P90Ms, st.P99Ms = percentile(l, 50), percentile(l, 90), percentile(l, 99)
			st.MaxMs = l[len(l)-1]
		}
		sum.Requests += st.Count
		sum.Errors += st.Errors
		sum.Classes = append(sum.Classes, st)
	}
	if sum.DurationSec > 0 {
		sum.Throughput = float64(sum.Requests) / sum.DurationSec
	}
	return sum
}

// String renders the summary as the human table twload prints.
func (s summary) String() string {
	out := fmt.Sprintf("%d requests in %.1fs (%.1f req/s, %d errors, concurrency %d)\n",
		s.Requests, s.DurationSec, s.Throughput, s.Errors, s.Concurrency)
	out += fmt.Sprintf("%-10s %8s %6s %6s %10s %10s %10s %10s %10s %6s\n",
		"class", "count", "errs", "429s", "mean", "p50", "p90", "p99", "max", "hit%")
	for _, c := range s.Classes {
		hit := "-"
		if c.CacheLookups > 0 {
			hit = fmt.Sprintf("%.0f%%", 100*float64(c.CacheHits)/float64(c.CacheLookups))
		}
		out += fmt.Sprintf("%-10s %8d %6d %6d %9.1fms %9.1fms %9.1fms %9.1fms %9.1fms %6s\n",
			c.Class, c.Count, c.Errors, c.RateLimited, c.MeanMs, c.P50Ms, c.P90Ms, c.P99Ms, c.MaxMs, hit)
	}
	return out
}

// target is the server under load.
type target struct {
	client *http.Client
	addr   string
}

// probe checks the target answers GET /v1/healthz before load starts,
// so a dead address fails fast instead of reporting an empty run.
func (t target) probe(ctx context.Context) error {
	resp, err := t.get(ctx, "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/healthz: status %d", resp.StatusCode)
		}
	}
	return err
}

func (t target) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.addr+path, nil)
	if err != nil {
		return nil, err
	}
	return t.client.Do(req)
}

func (t target) post(ctx context.Context, path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.addr+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return t.client.Do(req)
}

// do issues one step and reports the response's X-Cache marker
// ("hit"/"miss", empty for routes without one). A batch response is
// drained in full, so the latency covers receiving it.
func (t target) do(ctx context.Context, st step) (string, error) {
	path, body, what := "/v1/generate", any(st.gen), st.gen.Spec
	switch st.class {
	case classStream:
		return "", t.stream(ctx, st.gen)
	case classPlayer:
		return "", t.playerFlow(ctx, st.name)
	case classModule:
		path, body, what = "/v1/module", api.ModuleRequest{Pattern: st.name}, st.name
	}
	resp, err := t.post(ctx, path, body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s %s: status %d", path, what, resp.StatusCode)
	}
	return resp.Header.Get("X-Cache"), nil
}

// errRateLimited marks a flow the server cut short with a 429 — the
// summary counts it per class instead of counting an error.
var errRateLimited = errors.New("rate limited")

// playerPattern is the module every player flow quizzes on: a
// figure-catalog pattern render, so the flow never pays a scenario
// generation and its latency measures the player layer itself.
const playerPattern = "fig9c-ddos-attack"

// playerStep consumes one response of the player flow: 200 decodes
// into out (when non-nil), 429 reports errRateLimited, the tolerated
// status passes silently, anything else is an error.
func playerStep(resp *http.Response, err error, out any, tolerate int) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return errRateLimited
	case http.StatusOK:
		if out != nil {
			return json.Unmarshal(body, out)
		}
		return nil
	case tolerate:
		return nil
	}
	return fmt.Errorf("player flow: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// playerFlow runs one player's full flow — enroll, start an attempt,
// submit an answer, read progress — as a single latency sample. A 429
// at any step ends the flow as rate-limited (the later steps would
// only re-trip the same player's bucket).
func (t target) playerFlow(ctx context.Context, id string) error {
	// Enroll; 409 means an earlier flow already did.
	resp, err := t.post(ctx, "/v1/player", api.PlayerCreateRequest{ID: id, Name: "load " + id})
	if err := playerStep(resp, err, nil, http.StatusConflict); err != nil {
		return err
	}
	var att api.AttemptResult
	resp, err = t.post(ctx, "/v1/player/"+id+"/attempt",
		api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: playerPattern}})
	if err := playerStep(resp, err, &att, 0); err != nil {
		return err
	}
	resp, err = t.post(ctx, fmt.Sprintf("/v1/player/%s/attempt/%d", id, att.Attempt.Attempt),
		api.AttemptSubmitRequest{Answer: 0})
	if err := playerStep(resp, err, nil, 0); err != nil {
		return err
	}
	resp, err = t.get(ctx, "/v1/player/"+id+"/progress")
	return playerStep(resp, err, nil, 0)
}

// stream posts a streaming generate and reads every NDJSON frame; the
// request only counts as successful if the stream closes with a
// summary frame (an error frame or a truncated stream is a failure).
func (t target) stream(ctx context.Context, greq api.GenerateRequest) error {
	resp, err := t.post(ctx, "/v1/generate/stream", greq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("stream %s: status %d", greq.Spec, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	last := ""
	for sc.Scan() {
		var f api.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("stream %s: bad frame: %w", greq.Spec, err)
		}
		if f.Type == api.FrameError {
			return fmt.Errorf("stream %s: server error frame: %s", greq.Spec, f.Error)
		}
		last = f.Type
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last != api.FrameSummary {
		return fmt.Errorf("stream %s: truncated (last frame %q)", greq.Spec, last)
	}
	return nil
}
