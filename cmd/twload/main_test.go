package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// testServer serves the real twserve route table (internal/serve)
// over one service — the exact handler stack twload drives in
// production, X-Cache markers included.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.NewMux(api.New()))
	t.Cleanup(srv.Close)
	return srv
}

// class returns the named class's stats and whether it was sampled.
func class(s summary, name string) (classStats, bool) {
	for _, c := range s.Classes {
		if c.Class == name {
			return c, true
		}
	}
	return classStats{}, false
}

// TestRunMixedLoad: one short run against a single service completes
// whole rounds with zero errors. Every class appears, each in a whole
// multiple of its round-table slots (the same number of rounds for
// all), percentiles are consistent, and the cache is visible in the
// load shape: warm p50 below cold p50, warm mostly hits, cold never.
func TestRunMixedLoad(t *testing.T) {
	srv := testServer(t)
	sum, err := run(context.Background(), config{
		addr:        srv.URL,
		duration:    500 * time.Millisecond,
		concurrency: 4,
		players:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 || exitCode(sum) != 0 {
		t.Fatalf("load run saw %d errors:\n%s", sum.Errors, sum.String())
	}
	if sum.Requests == 0 || sum.Throughput <= 0 {
		t.Fatalf("no load delivered: %+v", sum)
	}
	if sum.Concurrency != 4 {
		t.Errorf("summary concurrency = %d", sum.Concurrency)
	}
	if len(sum.Classes) != len(classes) {
		t.Errorf("sampled %d classes, want %d:\n%s", len(sum.Classes), len(classes), sum.String())
	}
	rounds := -1
	for _, cl := range classes {
		st, ok := class(sum, cl.name)
		if !ok {
			t.Errorf("class %q missing from summary", cl.name)
			continue
		}
		if st.Count%cl.slots != 0 {
			t.Errorf("%s: count %d is not a whole multiple of %d slots", cl.name, st.Count, cl.slots)
		}
		if rounds < 0 {
			rounds = st.Count / cl.slots
		} else if st.Count/cl.slots != rounds {
			t.Errorf("%s: %d rounds' worth of requests, want %d like the other classes",
				cl.name, st.Count/cl.slots, rounds)
		}
		if st.P50Ms > st.P99Ms || st.MaxMs < st.P99Ms {
			t.Errorf("%s: inconsistent percentiles %+v", cl.name, st)
		}
	}
	if rounds < 4 {
		t.Errorf("%d rounds in total, want at least one per client", rounds)
	}
	warm, okW := class(sum, "warm")
	cold, okC := class(sum, "cold")
	if !okW || !okC {
		t.Fatal("warm or cold class missing")
	}
	if warm.P50Ms >= cold.P50Ms {
		t.Errorf("warm p50 %.2fms not below cold p50 %.2fms — cache not visible in the load shape",
			warm.P50Ms, cold.P50Ms)
	}
	// Generate-class requests carry the X-Cache marker: warm repeats
	// are nearly all hits, cold unique seeds never hit.
	if warm.CacheLookups == 0 {
		t.Error("warm class recorded no cache lookups — X-Cache capture lost")
	} else if float64(warm.CacheHits) < 0.5*float64(warm.CacheLookups) {
		t.Errorf("warm hit rate %d/%d below 50%%", warm.CacheHits, warm.CacheLookups)
	}
	if cold.CacheHits != 0 {
		t.Errorf("cold class recorded %d cache hits; unique seeds can never hit", cold.CacheHits)
	}
}

// TestRunUnreachableTarget: a dead address fails fast with a probe
// error instead of reporting a zero-request "success".
func TestRunUnreachableTarget(t *testing.T) {
	_, err := run(context.Background(), config{
		addr:        "http://127.0.0.1:1",
		duration:    time.Second,
		concurrency: 1,
	})
	if err == nil {
		t.Fatal("run against an unreachable target returned no error")
	}
}

// TestExitCode: a run fails on any error and on delivering nothing —
// a zero-duration run must not pass as clean.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		sum  summary
		want int
	}{
		{"clean", summary{Requests: 10}, 0},
		{"errors", summary{Requests: 10, Errors: 1}, 1},
		{"zero requests", summary{}, 1},
		{"zero-request summary", summarize(nil, time.Second), 1},
	}
	for _, c := range cases {
		if got := exitCode(c.sum); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSequenceIsPure: a client's sequence is a pure function of
// (client, concurrency, players, round); each round holds exactly the
// round table; no cold seed repeats across clients or rounds or meets
// a warm or composed seed; player flows cover every account.
func TestSequenceIsPure(t *testing.T) {
	fixed := map[int64]bool{streamReq.Seed: true}
	for _, w := range warmSet {
		fixed[w.Seed] = true
	}
	for _, concurrency := range []int{1, 4, 7} {
		for _, players := range []int{0, 3, 8} {
			coldSeeds := map[int64]bool{}
			accounts := map[string]bool{}
			for g := range concurrency {
				for r := range 5 {
					a := clientRound(g, concurrency, players, r)
					if b := clientRound(g, concurrency, players, r); !reflect.DeepEqual(a, b) {
						t.Fatalf("c=%d p=%d client %d round %d differs between calls", concurrency, players, g, r)
					}
					perClass := make([]int, len(classes))
					for _, st := range a {
						perClass[st.class]++
						switch st.class {
						case classCold:
							if coldSeeds[st.gen.Seed] || fixed[st.gen.Seed] || st.gen.Seed == 21 {
								t.Fatalf("c=%d p=%d: cold seed %d repeats or collides", concurrency, players, st.gen.Seed)
							}
							coldSeeds[st.gen.Seed] = true
						case classWarm, classComposed:
							fixed[st.gen.Seed] = true
						case classPlayer:
							accounts[st.name] = true
						}
					}
					for c, cl := range classes {
						want := cl.slots
						if c == classPlayer && players == 0 {
							want = 0
						}
						if perClass[c] != want {
							t.Errorf("c=%d p=%d client %d round %d: %d %s slots, want %d",
								concurrency, players, g, r, perClass[c], cl.name, want)
						}
					}
				}
			}
			if len(accounts) != players {
				t.Errorf("c=%d p=%d: player flows reached %d accounts", concurrency, players, len(accounts))
			}
		}
	}
	// Clients rotate the round: client 1 starts where client 0's
	// second slot is.
	r0, r1 := roundSlots(false), clientRound(1, 4, 0, 0)
	if r1[0].class != r0[1] {
		t.Errorf("client 1 starts with class %d, want %d", r1[0].class, r0[1])
	}
	// Cold slots spread through the round: no two adjoin, wrapping
	// into the next round included.
	for _, players := range []bool{false, true} {
		slots := roundSlots(players)
		for j, c := range slots {
			if c == classCold && slots[(j+1)%len(slots)] == classCold {
				t.Errorf("players=%v: cold slots %d and %d adjoin: %v", players, j, (j+1)%len(slots), slots)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %g", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile(single, 99) = %g", got)
	}
}

// mergedSummary deals samples round-robin over n clients' slices and
// summarizes them, so the tests below go through run's merge.
func mergedSummary(samples []sample, n int, elapsed time.Duration) summary {
	perClient := make([][]sample, n)
	for i, s := range samples {
		perClient[i%n] = append(perClient[i%n], s)
	}
	return summarize(perClient, elapsed)
}

func TestSummarize(t *testing.T) {
	var samples []sample
	for i := 1; i <= 100; i++ {
		samples = append(samples, sample{class: classWarm, ms: float64(i)})
	}
	samples = append(samples,
		sample{class: classCold, ms: 500},
		sample{class: classCold, err: errors.New("boom")})

	s := mergedSummary(samples, 4, 10*time.Second)
	if s.Requests != 102 || s.Errors != 1 {
		t.Fatalf("requests %d, errors %d", s.Requests, s.Errors)
	}
	if s.Throughput != 10.2 {
		t.Errorf("throughput = %g", s.Throughput)
	}
	if len(s.Classes) != 2 || s.Classes[0].Class != "cold" || s.Classes[1].Class != "warm" {
		t.Fatalf("classes = %+v", s.Classes)
	}
	warm, ok := class(s, "warm")
	if !ok || warm.Count != 100 || warm.Errors != 0 {
		t.Fatalf("warm = %+v", warm)
	}
	if warm.P50Ms != 50 || warm.P99Ms != 99 || warm.MaxMs != 100 || warm.MeanMs != 50.5 {
		t.Errorf("warm distribution = mean %g p50 %g p99 %g max %g", warm.MeanMs, warm.P50Ms, warm.P99Ms, warm.MaxMs)
	}
	cold, _ := class(s, "cold")
	if cold.Count != 2 || cold.Errors != 1 || cold.P50Ms != 500 {
		t.Errorf("cold = %+v (errors must not pollute the latency distribution)", cold)
	}
	if _, ok := class(s, "stream"); ok {
		t.Error("summary lists a class that was never issued")
	}
}

// TestSummarizeErrorOnlyClass: a class whose every request failed
// still appears in the summary — silent disappearance would make a
// 100%-error run look clean.
func TestSummarizeErrorOnlyClass(t *testing.T) {
	s := mergedSummary([]sample{{class: classStream, err: errors.New("refused")}}, 2, time.Second)
	st, ok := class(s, "stream")
	if !ok || st.Count != 1 || st.Errors != 1 {
		t.Fatalf("error-only class = %+v, ok=%v", st, ok)
	}
}

// TestSummarizeRateLimited: 429s tally per class without counting as
// errors — the limiter firing is an expected outcome, and the smoke
// job asserts on the tally. Cache counters count only marked requests.
func TestSummarizeRateLimited(t *testing.T) {
	s := mergedSummary([]sample{
		{class: classPlayer, ms: 3},
		{class: classPlayer, ms: 1, err: errRateLimited},
		{class: classPlayer, ms: 2, err: errRateLimited},
		{class: classPlayer, ms: 1},
		{class: classWarm, ms: 1, cache: "hit"},
		{class: classWarm, ms: 9, cache: "miss"},
		{class: classWarm, ms: 1, cache: "hit"},
	}, 3, time.Second)
	st, ok := class(s, "player")
	if !ok || st.RateLimited != 2 || st.Count != 4 {
		t.Fatalf("player class = %+v, want rate_limited 2 of 4", st)
	}
	if s.Errors != 0 || st.Errors != 0 {
		t.Errorf("429 tally leaked into errors: %+v", st)
	}
	if st.CacheLookups != 0 {
		t.Errorf("player flows carry no X-Cache marker, got %d lookups", st.CacheLookups)
	}
	if warm, _ := class(s, "warm"); warm.CacheHits != 2 || warm.CacheLookups != 3 {
		t.Errorf("warm cache counters = %d/%d, want 2/3", warm.CacheHits, warm.CacheLookups)
	}
	if !strings.Contains(s.String(), "429s") {
		t.Errorf("summary table missing the 429 column:\n%s", s.String())
	}
}

func TestSummaryString(t *testing.T) {
	s := summarize([][]sample{{{class: classWarm, ms: 2, cache: "hit"}}}, time.Second)
	s.Concurrency = 8
	out := s.String()
	for _, want := range []string{"warm", "concurrency 8", "p99", "100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}
