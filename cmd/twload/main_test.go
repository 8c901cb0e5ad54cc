package main

import (
	"context"
	"net/http/httptest"
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

// TestRunMixedLoad: one run against a single service completes with
// zero errors, covers the dominant request classes, reports sane
// percentiles, and exhibits the invariant benchguard -load gates on:
// repeated specs are served from cache, so warm p50 sits below cold
// p50. Long enough (4s) that the 20% cold class is sampled even when
// the race detector slows every request several-fold.
func TestRunMixedLoad(t *testing.T) {
	srv := testServer(t)
	sum, err := run(context.Background(), config{
		addr:        srv.URL,
		duration:    4 * time.Second,
		concurrency: 4,
		seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("load run saw %d errors:\n%s", sum.Errors, sum.String())
	}
	if sum.Requests == 0 || sum.Throughput <= 0 {
		t.Fatalf("no load delivered: %+v", sum)
	}
	if sum.Workers != 1 {
		t.Errorf("probed worker count = %d, want 1", sum.Workers)
	}
	if sum.Concurrency != 4 {
		t.Errorf("summary concurrency = %d", sum.Concurrency)
	}
	// The dominant classes must appear; stream at 5% may legitimately
	// miss the window.
	for _, class := range []string{"warm", "cold"} {
		st, ok := sum.Class(class)
		if !ok {
			t.Errorf("class %q missing from summary", class)
			continue
		}
		if st.P50Ms > st.P99Ms || st.MaxMs < st.P99Ms {
			t.Errorf("%s: inconsistent percentiles %+v", class, st)
		}
	}
	warm, okW := sum.Class("warm")
	cold, okC := sum.Class("cold")
	if okW && okC && warm.P50Ms >= cold.P50Ms {
		t.Errorf("warm p50 %.2fms not below cold p50 %.2fms — cache not visible in the load shape",
			warm.P50Ms, cold.P50Ms)
	}
	// Generate-class requests carry the X-Cache marker: warm repeats
	// are nearly all hits, cold unique seeds never hit.
	if okW {
		if warm.CacheLookups == 0 {
			t.Error("warm class recorded no cache lookups — X-Cache capture lost")
		} else if warm.HitRate() < 0.5 {
			t.Errorf("warm hit rate %.0f%% below 50%% — cache counters implausible", 100*warm.HitRate())
		}
	}
	if okC && cold.CacheHits != 0 {
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
