package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/loadreport"
)

// loadFile is the combined load snapshot a CI smoke job assembles.
// Two shapes exist, distinguished by which fields are present:
//
//   - PR 8 (single process): {"single": …}
//   - PR 9 (cluster proxy):  {"direct": …, "proxy": …, "membership": …}
//
// where single is twload against one twserve, direct is the same
// load against one backend twserve, proxy is that load through
// `twserve -proxy` fronting the backends, and membership is a proxy
// run during which a backend was added and removed mid-load.
type loadFile struct {
	Single *loadreport.Summary `json:"single,omitempty"`

	Direct     *loadreport.Summary `json:"direct,omitempty"`
	Proxy      *loadreport.Summary `json:"proxy,omitempty"`
	Membership *loadreport.Summary `json:"membership,omitempty"`
}

// runLoadGate checks the machine-independent invariants of a combined
// load snapshot and returns the process exit code. Latency and
// throughput numbers themselves vary wildly across runners, so the
// gate pins only the *shape* a healthy service produces:
//
//   - every run present delivered load and saw zero errors — for the
//     membership run that means zero dropped requests across a live
//     backend add + remove;
//   - warm p50 sits at least warmFactor below cold p50 in every
//     steady-state run (the cache and spec affinity are working — a
//     misrouted respelling or a poisoned cache collapses this gap;
//     the churning membership run is exempt from latency shape);
//   - proxy cold p50 ≤ maxOverhead × direct cold p50 (the HTTP hop
//     may tax the compute-bound floor only so much);
//   - the proxy run's warm-class cache hit rate ≥ minHitRate (ring
//     affinity holds across processes: warm repeats keep landing on
//     the backend already holding the run).
func runLoadGate(path string, warmFactor, maxOverhead, minHitRate float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read load snapshot: %v\n", err)
		return 2
	}
	var lf loadFile
	if err := json.Unmarshal(data, &lf); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse load snapshot: %v\n", err)
		return 2
	}

	failed := 0
	check := func(ok bool, format string, args ...any) {
		if ok {
			fmt.Printf("ok   "+format+"\n", args...)
		} else {
			fmt.Printf("FAIL "+format+"\n", args...)
			failed++
		}
	}

	runs := []struct {
		name string
		s    *loadreport.Summary
		// steady runs must show the warm ≪ cold latency shape; the
		// membership-churn run only has to stay error-free.
		steady bool
	}{
		{"single", lf.Single, true},
		{"direct", lf.Direct, true},
		{"proxy", lf.Proxy, true},
		{"membership", lf.Membership, false},
	}
	present := 0
	for _, run := range runs {
		if run.s == nil {
			continue
		}
		present++
		check(run.s.Requests > 0, "%s: delivered load (%d requests, %.1f req/s, %d workers)",
			run.name, run.s.Requests, run.s.Throughput, run.s.Workers)
		check(run.s.Errors == 0, "%s: zero errors (got %d)", run.name, run.s.Errors)
		if !run.steady {
			continue
		}
		warm, okW := run.s.Class("warm")
		cold, okC := run.s.Class("cold")
		check(okW && okC, "%s: warm and cold classes both sampled", run.name)
		if okW && okC && cold.P50Ms > 0 {
			check(warm.P50Ms*warmFactor < cold.P50Ms,
				"%s: warm p50 %.2fms < cold p50 %.2fms / %g (cache + spec affinity)",
				run.name, warm.P50Ms, cold.P50Ms, warmFactor)
		}
	}
	if present == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s holds no load runs benchguard knows\n", path)
		return 2
	}

	if lf.Direct != nil && lf.Proxy != nil {
		dcold, okD := lf.Direct.Class("cold")
		pcold, okP := lf.Proxy.Class("cold")
		if okD && okP && dcold.P50Ms > 0 {
			check(pcold.P50Ms <= maxOverhead*dcold.P50Ms,
				"proxy cold p50 %.2fms ≤ %g × direct cold p50 %.2fms (hop overhead bounded)",
				pcold.P50Ms, maxOverhead, dcold.P50Ms)
		}
		if warm, ok := lf.Proxy.Class("warm"); ok && warm.CacheLookups > 0 {
			check(warm.HitRate() >= minHitRate,
				"proxy warm hit rate %.0f%% ≥ %.0f%% (ring affinity across processes)",
				100*warm.HitRate(), 100*minHitRate)
		} else {
			check(false, "proxy: warm class carries cache counters (affinity is measurable)")
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d load invariant(s) failed\n", failed)
		return 1
	}
	fmt.Println("benchguard: load snapshot satisfies all invariants")
	return 0
}
