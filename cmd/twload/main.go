// Command twload drives a running twserve with a concurrent mixed
// classroom workload and reports per-class latency percentiles,
// throughput, and error rate — the measurement half of the sharded
// service core.
//
//	twload -addr http://localhost:8080 -duration 10s -concurrency 8 -json out.json
//
// The workload models a classroom session against one shared server:
//
//	warm     50%  a small set of fixed spec/seed runs, repeated — the
//	              hot path; after the first computation every request
//	              is a cache hit on the spec's worker
//	cold     20%  unique-seed runs that can never hit the cache — the
//	              compute-bound floor
//	composed 15%  fixed composition-spec runs (warm after first touch,
//	              but parse + route through the full spec grammar)
//	module   10%  figure-pattern module renders
//	stream    5%  streaming generates, every NDJSON frame read
//
// With -players N > 0 a sixth class joins the mix: 25% of requests
// become player flows (enroll → start attempt → submit → read
// progress) spread over N synthetic accounts load-p0 … load-p{N-1},
// with the remaining 75% split by the ratios above. A 429 from the
// server's per-player rate limiter is tallied separately (the
// rate_limited column), not as an error — the smoke harness asserts
// the limiter fires under aggressive -player-rps without failing the
// run.
//
// Each request class is reported separately (see
// internal/loadreport), so warm-vs-cold p50 is directly visible; the
// harness's benchguard -load mode asserts the invariants that hold on
// any machine. Before the run twload asks GET /v1/stats for the
// server's worker count and records it in the summary, making a
// summary file self-describing when comparing one twserve against a
// -proxy fleet.
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
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/loadreport"
	"repro/internal/player"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "twserve base URL")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("concurrency", 8, "concurrent client goroutines")
	seed := flag.Int64("seed", 1, "workload shuffle seed")
	players := flag.Int("players", 0, "synthetic player accounts to drive (0 disables the player class)")
	jsonOut := flag.String("json", "", "write the summary as JSON to this path (\"-\" for stdout)")
	flag.Parse()

	sum, err := run(context.Background(), config{
		addr:        *addr,
		duration:    *duration,
		concurrency: *concurrency,
		seed:        *seed,
		players:     *players,
	})
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
	if sum.Errors > 0 {
		os.Exit(1)
	}
}

type config struct {
	addr        string
	duration    time.Duration
	concurrency int
	seed        int64
	players     int
}

// Class mix in cumulative percent: rng.Intn(100) < boundary picks the
// class. Warm dominates because a classroom repeats the lesson's
// specs; cold keeps the compute path honest under the same load.
const (
	pctWarm     = 50
	pctCold     = 70 // +20
	pctComposed = 85 // +15
	pctModule   = 95 // +10
	// remainder: stream (5)

	// pctPlayer is the player-flow share when -players is on; the
	// classes above keep their relative ratios inside the remainder.
	pctPlayer = 25
)

// loadShape is the parameter block every generate-class request
// shares: big enough that a cold computation is compute-bound
// (tens of ms — a cache hit is ~1ms, so the warm/cold p50 gap
// isolates caching, not workload size), small enough that a 10s run
// completes hundreds of them.
func loadShape(spec string, seed int64) api.GenerateRequest {
	return api.GenerateRequest{
		Spec: spec, Seed: seed, Hosts: 200,
		Duration: 60, Scale: 8, Window: 10, Workers: 1,
	}
}

// coldSpec is the composition every unique-seed cold request runs.
const coldSpec = "overlay(background, sequence(scan, ddos))"

// warmSet is the fixed lesson: the specs a classroom repeats, in the
// same shape as the cold class. After each first computation every
// further request is a cache hit on the spec's worker.
var warmSet = []api.GenerateRequest{
	loadShape("scan", 11),
	loadShape("ddos", 12),
	loadShape("background", 13),
	loadShape(coldSpec, 14),
}

// composedSet exercises the spec grammar and the router's canonical
// keying (both spellings of the first spec are one cache line).
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

// run drives the configured load and returns the summary.
func run(ctx context.Context, cfg config) (loadreport.Summary, error) {
	if cfg.concurrency < 1 {
		cfg.concurrency = 1
	}
	client := &http.Client{}
	workers, err := serverWorkers(ctx, client, cfg.addr)
	if err != nil {
		return loadreport.Summary{}, fmt.Errorf("probe %s: %w", cfg.addr, err)
	}

	collector := loadreport.NewCollector()
	var coldSeq atomic.Int64
	deadline := time.Now().Add(cfg.duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(g)))
			for time.Now().Before(deadline) {
				class, call := pick(rng, &coldSeq, cfg.players)
				t0 := time.Now()
				cache, err := call(runCtx, client, cfg.addr)
				if runCtx.Err() != nil && err != nil {
					// The deadline tripped mid-request; an aborted tail
					// request is not a server error.
					break
				}
				if errors.Is(err, errRateLimited) {
					// A 429 is the limiter doing its job: tally it,
					// keep the round trip as a latency sample.
					collector.RecordRateLimited(class)
					err = nil
				}
				collector.Record(class, time.Since(t0), err)
				if err == nil && cache != "" {
					collector.RecordCache(class, cache == "hit")
				}
			}
		}(g)
	}
	wg.Wait()

	sum := collector.Summarize(time.Since(start))
	sum.Addr = cfg.addr
	sum.Workers = workers
	sum.Concurrency = cfg.concurrency
	return sum, nil
}

// pick selects a request class and returns its caller.
func pick(rng *rand.Rand, coldSeq *atomic.Int64, players int) (string, callFunc) {
	if players > 0 && rng.Intn(100) < pctPlayer {
		return "player", playerCall(fmt.Sprintf("load-p%d", rng.Intn(players)))
	}
	switch n := rng.Intn(100); {
	case n < pctWarm:
		req := warmSet[rng.Intn(len(warmSet))]
		return "warm", generateCall(req)
	case n < pctCold:
		// Seeds from a shared sequence, offset far past every fixed
		// seed: no cold request ever repeats, so none can hit.
		return "cold", generateCall(loadShape(coldSpec, 1_000_000+coldSeq.Add(1)))
	case n < pctComposed:
		return "composed", generateCall(loadShape(composedSet[rng.Intn(len(composedSet))], 21))
	case n < pctModule:
		pattern := moduleSet[rng.Intn(len(moduleSet))]
		return "module", moduleCall(pattern)
	default:
		// Streams bypass the result cache, so every stream recomputes;
		// a lighter run keeps the 5% stream share from dominating.
		return "stream", streamCall(api.GenerateRequest{
			Spec: "ddos", Seed: 31, Hosts: 100, Duration: 30, Window: 10, Workers: 1})
	}
}

// serverWorkers asks /v1/stats how many workers the target fronts —
// and doubles as the reachability probe before load starts.
func serverWorkers(ctx context.Context, client *http.Client, addr string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var rep api.StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, err
	}
	return len(rep.Workers), nil
}

func postJSON(ctx context.Context, client *http.Client, url string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

// callFunc issues one request and reports the response's X-Cache
// marker ("hit"/"miss", empty for routes without one) alongside any
// failure.
type callFunc func(context.Context, *http.Client, string) (string, error)

// generateCall posts a batch generate and drains the body (the
// response must be fully received for the latency to mean anything).
func generateCall(greq api.GenerateRequest) callFunc {
	return func(ctx context.Context, client *http.Client, addr string) (string, error) {
		resp, err := postJSON(ctx, client, addr+"/v1/generate", greq)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("generate %s: status %d", greq.Spec, resp.StatusCode)
		}
		return resp.Header.Get("X-Cache"), nil
	}
}

func moduleCall(pattern string) callFunc {
	return func(ctx context.Context, client *http.Client, addr string) (string, error) {
		resp, err := postJSON(ctx, client, addr+"/v1/module", api.ModuleRequest{Pattern: pattern})
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("module %s: status %d", pattern, resp.StatusCode)
		}
		return "", nil
	}
}

// errRateLimited marks a flow the server cut short with a 429 — the
// run loop tallies it per class instead of counting an error.
var errRateLimited = errors.New("rate limited")

// playerPattern is the module every player flow quizzes on: a
// figure-catalog pattern render, so the flow never pays a scenario
// generation and its latency measures the player layer itself.
const playerPattern = "fig9c-ddos-attack"

// playerStep consumes one response of the player flow: 200 decodes
// into out (when non-nil), 429 reports errRateLimited, statuses in
// tolerate pass silently, anything else is an error.
func playerStep(resp *http.Response, err error, out any, tolerate ...int) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errRateLimited
	case resp.StatusCode == http.StatusOK:
		if out != nil {
			return json.Unmarshal(body, out)
		}
		return nil
	}
	for _, s := range tolerate {
		if resp.StatusCode == s {
			return nil
		}
	}
	return fmt.Errorf("player flow: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// playerCall runs one player's full flow — enroll, start an attempt,
// submit an answer, read progress — as a single latency sample. A 429
// at any step ends the flow as rate-limited (the later steps would
// only re-trip the same player's bucket).
func playerCall(id string) callFunc {
	return func(ctx context.Context, client *http.Client, addr string) (string, error) {
		// Enroll; 409 means an earlier iteration already did.
		resp, err := postJSON(ctx, client, addr+"/v1/player",
			api.PlayerCreateRequest{ID: id, Name: "load " + id})
		if err := playerStep(resp, err, nil, http.StatusConflict); err != nil {
			return "", err
		}

		var att api.AttemptResult
		resp, err = postJSON(ctx, client, addr+"/v1/player/"+id+"/attempt",
			api.AttemptStartRequest{ModuleRef: player.ModuleRef{Pattern: playerPattern}})
		if err := playerStep(resp, err, &att); err != nil {
			return "", err
		}

		resp, err = postJSON(ctx, client,
			fmt.Sprintf("%s/v1/player/%s/attempt/%d", addr, id, att.Attempt.Attempt),
			api.AttemptSubmitRequest{Answer: 0})
		if err := playerStep(resp, err, nil); err != nil {
			return "", err
		}

		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/player/"+id+"/progress", nil)
		if err != nil {
			return "", err
		}
		resp, err = client.Do(req)
		if err := playerStep(resp, err, nil); err != nil {
			return "", err
		}
		return "", nil
	}
}

// streamCall posts a streaming generate and reads every NDJSON frame;
// the request only counts as successful if the stream closes with a
// summary frame (an error frame or a truncated stream is a failure).
func streamCall(greq api.GenerateRequest) callFunc {
	return func(ctx context.Context, client *http.Client, addr string) (string, error) {
		resp, err := postJSON(ctx, client, addr+"/v1/generate/stream", greq)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return "", fmt.Errorf("stream %s: status %d", greq.Spec, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		last := ""
		for sc.Scan() {
			var f api.StreamFrame
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				return "", fmt.Errorf("stream %s: bad frame: %w", greq.Spec, err)
			}
			if f.Type == api.FrameError {
				return "", fmt.Errorf("stream %s: server error frame: %s", greq.Spec, f.Error)
			}
			last = f.Type
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		if last != api.FrameSummary {
			return "", fmt.Errorf("stream %s: truncated (last frame %q)", greq.Spec, last)
		}
		return "", nil
	}
}
