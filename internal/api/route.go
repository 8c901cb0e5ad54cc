package api

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
)

// Routing identity. A spec-hash router in front of several Service
// workers must send every spelling of one run to the same worker, or
// worker-local caches and singleflight coalescing stop composing
// across clients. RouteKey therefore canonicalizes exactly like the
// cache key does — netsim.SpecString of the resolved scenario plus
// the normalized parameters — so "overlay(background,scan)" and
// "overlay( background , scan )" route identically, and a Generate
// and an Analyze of the same spec land on the same worker and share
// one cached run.
//
// RouteKey never fails: a spec that does not resolve routes by its
// raw text, and the chosen worker then reports the validation error
// the caller would have gotten anyway.

// RouteKey returns the canonical routing identity of the request.
func (r GenerateRequest) RouteKey() string {
	scn, err := resolveSpec(r.Spec)
	if err != nil {
		return "invalid|" + strings.TrimSpace(r.Spec)
	}
	return r.cacheKey(netsim.SpecString(scn), netsim.ScaledSize(r.Hosts))
}

// RouteKey routes the spec path exactly like the Generate it turns
// into; a posted matrix is stateless, so it routes by shape and a
// sampled checksum just to spread load.
func (r AnalyzeRequest) RouteKey() string {
	if strings.TrimSpace(r.Spec) != "" {
		return GenerateRequest{
			Spec: r.Spec, Hosts: r.Hosts, Seed: r.Seed,
			Duration: r.Duration, Rate: r.Rate, Scale: r.Scale,
		}.RouteKey()
	}
	// Sample up to 64 cells so two different matrices of one size
	// usually hash apart without walking n² cells on the router.
	sum, n := 0, len(r.Matrix)
	stride := n*n/64 + 1
	for k := 0; k < n*n; k += stride {
		row := r.Matrix[k/n]
		if j := k % n; j < len(row) {
			sum += row[j] * (k + 1)
		}
	}
	return fmt.Sprintf("matrix|n=%d|s=%d", n, sum)
}

// RouteKey routes spec-path modules like their cached identity and
// pattern-path modules by pattern ID.
func (r ModuleRequest) RouteKey() string {
	if strings.TrimSpace(r.Pattern) != "" {
		return "pattern|" + strings.TrimSpace(r.Pattern)
	}
	scn, err := resolveSpec(r.Spec)
	if err != nil {
		return "invalid|" + strings.TrimSpace(r.Spec)
	}
	p := netsim.Params{Duration: r.Duration, Rate: r.Rate, Scale: r.Scale}
	return paramsKey("module", netsim.SpecString(scn), netsim.ScaledSize(r.Hosts), r.Seed, p)
}

// RouteKey routes campaigns by the same identity their cache entry
// uses.
func (r CampaignRequest) RouteKey() string {
	scn, err := resolveSpec(r.Spec)
	if err != nil {
		return "invalid|" + strings.TrimSpace(r.Spec)
	}
	p := netsim.Params{Duration: r.Duration, Rate: r.Rate, Scale: r.Scale}
	return paramsKey("campaign", netsim.SpecString(scn), netsim.ScaledSize(r.Hosts), r.Seed, p) +
		fmt.Sprintf("|win=%g", r.Window)
}
