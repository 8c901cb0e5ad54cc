package main

import (
	"encoding/json"
	"testing"

	"repro/internal/loadreport"
)

// gate runs the load gate with the default thresholds CI uses.
func gate(t *testing.T, lf loadFile, warmFactor float64) int {
	t.Helper()
	return runLoadGate(writeLoad(t, lf), warmFactor, 3.0, 0.5)
}

// mkSummary builds one healthy run summary.
func mkSummary(workers int, rps float64) *loadreport.Summary {
	return &loadreport.Summary{
		Workers: workers, Concurrency: 8, DurationSec: 10,
		Requests: int(rps * 10), Throughput: rps,
		Classes: []loadreport.ClassStats{
			{Class: "cold", Count: 40, P50Ms: 200, P99Ms: 400, CacheHits: 0, CacheLookups: 40},
			{Class: "warm", Count: 100, P50Ms: 2, P99Ms: 8, CacheHits: 96, CacheLookups: 100},
		},
	}
}

// goodLoad builds a PR 8-shape snapshot satisfying every invariant.
func goodLoad() loadFile {
	return loadFile{Single: mkSummary(1, 50)}
}

// goodProxyLoad builds a PR 9-shape snapshot (direct vs proxy plus a
// membership-churn run) satisfying every invariant.
func goodProxyLoad() loadFile {
	return loadFile{
		Direct:     mkSummary(1, 60),
		Proxy:      mkSummary(2, 55),
		Membership: mkSummary(2, 50),
	}
}

func writeLoad(t *testing.T, lf loadFile) string {
	t.Helper()
	data, err := json.Marshal(lf)
	if err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "load.json", string(data))
}

func TestLoadGatePasses(t *testing.T) {
	if code := gate(t, goodLoad(), 10); code != 0 {
		t.Fatalf("healthy snapshot exited %d", code)
	}
}

func TestLoadGateFailsOnErrors(t *testing.T) {
	lf := goodLoad()
	lf.Single.Errors = 3
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("errors in single run exited %d, want 1", code)
	}
}

func TestLoadGateFailsOnCollapsedWarmColdGap(t *testing.T) {
	lf := goodLoad()
	// Warm p50 only 2× below cold: the cache is not visibly working.
	for i := range lf.Single.Classes {
		if lf.Single.Classes[i].Class == "warm" {
			lf.Single.Classes[i].P50Ms = 100
		}
	}
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("collapsed warm/cold gap exited %d, want 1", code)
	}
}

func TestLoadGateFailsOnEmptyRun(t *testing.T) {
	lf := goodLoad()
	lf.Single = &loadreport.Summary{}
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("empty single run exited %d, want 1", code)
	}
}

func TestLoadGateRejectsGarbage(t *testing.T) {
	if code := runLoadGate(writeTemp(t, "bad.json", "{not json"), 10, 3.0, 0.5); code != 2 {
		t.Fatalf("garbage snapshot exited %d, want 2", code)
	}
	if code := runLoadGate("/nonexistent/load.json", 10, 3.0, 0.5); code != 2 {
		t.Fatalf("missing snapshot exited %d, want 2", code)
	}
	// A JSON object holding none of the known run shapes is equally
	// unusable — the guard must not silently pass by checking nothing.
	if code := runLoadGate(writeTemp(t, "empty.json", "{}"), 10, 3.0, 0.5); code != 2 {
		t.Fatalf("runless snapshot exited %d, want 2", code)
	}
}

func TestLoadGateProxyPasses(t *testing.T) {
	if code := gate(t, goodProxyLoad(), 10); code != 0 {
		t.Fatalf("healthy proxy snapshot exited %d", code)
	}
}

func TestLoadGateProxyFailsOnHopOverhead(t *testing.T) {
	lf := goodProxyLoad()
	// Proxy cold p50 at 4× the direct floor busts the 3× bound.
	for i := range lf.Proxy.Classes {
		if lf.Proxy.Classes[i].Class == "cold" {
			lf.Proxy.Classes[i].P50Ms = 800
			lf.Proxy.Classes[i].P99Ms = 1600
		}
	}
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("4× hop overhead exited %d, want 1", code)
	}
}

func TestLoadGateProxyFailsOnLostAffinity(t *testing.T) {
	lf := goodProxyLoad()
	// Warm repeats mostly missing: ring affinity is broken even if
	// latency happens to look fine.
	for i := range lf.Proxy.Classes {
		if lf.Proxy.Classes[i].Class == "warm" {
			lf.Proxy.Classes[i].CacheHits = 20
		}
	}
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("20%% proxy warm hit rate exited %d, want 1", code)
	}
}

func TestLoadGateProxyRequiresCacheCounters(t *testing.T) {
	lf := goodProxyLoad()
	// A snapshot without cache counters cannot prove affinity; the
	// gate must fail loudly rather than skip the check.
	for i := range lf.Proxy.Classes {
		lf.Proxy.Classes[i].CacheHits = 0
		lf.Proxy.Classes[i].CacheLookups = 0
	}
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("counterless proxy snapshot exited %d, want 1", code)
	}
}

func TestLoadGateMembershipChurnExemptFromLatencyShape(t *testing.T) {
	lf := goodProxyLoad()
	// A membership run's warm p50 legitimately degrades while keys
	// move; only errors fail it.
	for i := range lf.Membership.Classes {
		if lf.Membership.Classes[i].Class == "warm" {
			lf.Membership.Classes[i].P50Ms = 150
		}
	}
	if code := gate(t, lf, 10); code != 0 {
		t.Fatalf("churny-but-clean membership run exited %d, want 0", code)
	}
	lf.Membership.Errors = 1
	if code := gate(t, lf, 10); code != 1 {
		t.Fatalf("membership run with a dropped request exited %d, want 1", code)
	}
}
