package api

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/netsim"
)

// Version is the wire version of the request/response contract.
// twserve mounts every route under it and results carry it.
const Version = "v1"

// ErrInvalidRequest marks request validation failures — the caller
// sent something no configuration could give meaning to. twserve
// maps it to HTTP 400; everything else is a 500.
var ErrInvalidRequest = errors.New("api: invalid request")

// Request bounds: generous enough for every documented workload
// (the perf suite benches 10k-host networks), small enough that one
// unauthenticated request cannot exhaust a served deployment by
// asking for a million-host network or a billion windows. The
// remaining work a maxed-out request can demand is large but
// cancellable — it holds a worker pool, not the heap.
const (
	// MaxHosts bounds the network size.
	MaxHosts = 10_000
	// MaxDuration bounds the scenario length in seconds.
	MaxDuration = 1e6
	// MaxRate bounds the intensity hint in events/sec.
	MaxRate = 1e6
	// MaxScale bounds the volume multiplier.
	MaxScale = 1 << 20
	// MaxWindows bounds how many aggregation windows one request may
	// split its run into.
	MaxWindows = 10_000
	// MaxEventBudget bounds the product duration × rate × scale — a
	// proxy for the event volume a run buffers. Individual caps on
	// each factor still compose into ~10^18 events; the budget keeps
	// the product itself at a size one server can hold in memory.
	MaxEventBudget = 1e8
	// MaxCellBudget bounds the dense cells one response carries: n²
	// per grid on an n-host axis, summed over every grid. Measured on
	// a 19-event run near the limit, a generate allocates about 100
	// bytes per cell (203 MiB for 11 grids of 435 hosts), a module 85
	// (162 MiB at 1,000 hosts) and a campaign 145 (272 MiB for 22
	// grids of 300 hosts), so no request within it allocates more
	// than about 300 MiB beyond what its events cost.
	MaxCellBudget = 1 << 21
)

// GenerateRequest asks for a full scenario run: generation, optional
// windowing with per-window readings, and the aggregate sparse-path
// analysis. The zero value of every optional field selects the
// documented default, so GenerateRequest{Spec: "ddos"} is a complete
// request.
type GenerateRequest struct {
	// Spec names what to run: a catalog scenario name ("ddos") or a
	// composition expression ("overlay(background, scan)"). Required.
	// The service never reads the filesystem — front-ends resolve
	// file arguments with ResolveSpecArg first.
	Spec string `json:"spec"`
	// Hosts sizes the network (≤ 10 selects the paper's standard
	// 10-host network).
	Hosts int `json:"hosts,omitempty"`
	// Seed is the deterministic run seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers sets the generation worker count (0 = all CPUs). It is
	// deliberately absent from the cache key: the engine's output is
	// identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// Duration, Rate, and Scale are the scenario parameters
	// (netsim.Params); zero fields take the engine defaults.
	Duration float64 `json:"duration,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Scale    int     `json:"scale,omitempty"`
	// Window, when positive, adds the per-window spatial-temporal
	// view (WindowResult per interval) to the response.
	Window float64 `json:"window,omitempty"`
	// IncludeMatrices adds dense cell grids to the JSON encoding of
	// the windows and the aggregate — off by default because they are
	// n² per window on the wire.
	IncludeMatrices bool `json:"include_matrices,omitempty"`
}

// GenerateOption mutates a GenerateRequest under construction: the
// options pattern that replaces the positional-parameter sprawl the
// CLIs used to hand-wire.
type GenerateOption func(*GenerateRequest)

// NewGenerateRequest builds a request for spec with the given
// options applied in order.
func NewGenerateRequest(spec string, opts ...GenerateOption) GenerateRequest {
	r := GenerateRequest{Spec: spec}
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// WithHosts sets the network size.
func WithHosts(n int) GenerateOption { return func(r *GenerateRequest) { r.Hosts = n } }

// WithSeed sets the run seed.
func WithSeed(seed int64) GenerateOption { return func(r *GenerateRequest) { r.Seed = seed } }

// WithWorkers sets the generation worker count (0 = all CPUs).
func WithWorkers(n int) GenerateOption { return func(r *GenerateRequest) { r.Workers = n } }

// WithParams sets the scenario parameters (zero fields keep the
// engine defaults).
func WithParams(duration, rate float64, scale int) GenerateOption {
	return func(r *GenerateRequest) {
		r.Duration, r.Rate, r.Scale = duration, rate, scale
	}
}

// WithWindow enables the per-window view at the given aggregation
// window length in seconds.
func WithWindow(seconds float64) GenerateOption {
	return func(r *GenerateRequest) { r.Window = seconds }
}

// WithMatrices includes dense cell grids in the JSON encoding.
func WithMatrices() GenerateOption {
	return func(r *GenerateRequest) { r.IncludeMatrices = true }
}

// params assembles the netsim parameters the request configures.
func (r GenerateRequest) params() netsim.Params {
	return netsim.Params{Duration: r.Duration, Rate: r.Rate, Scale: r.Scale}
}

// validate rejects fields no run could give meaning to. Zero values
// are always acceptable (they mean "default"); only actively bad
// values — negatives, NaN, ±Inf — fail.
func (r GenerateRequest) validate() error {
	if strings.TrimSpace(r.Spec) == "" {
		return fmt.Errorf("%w: empty spec", ErrInvalidRequest)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"duration", r.Duration}, {"rate", r.Rate}, {"window", r.Window},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("%w: %s must be a finite non-negative number, got %g", ErrInvalidRequest, f.name, f.v)
		}
	}
	if r.Scale < 0 {
		return fmt.Errorf("%w: scale must not be negative, got %d", ErrInvalidRequest, r.Scale)
	}
	if r.Hosts < 0 {
		return fmt.Errorf("%w: hosts must not be negative, got %d", ErrInvalidRequest, r.Hosts)
	}
	switch {
	case r.Hosts > MaxHosts:
		return fmt.Errorf("%w: hosts %d exceeds the %d limit", ErrInvalidRequest, r.Hosts, MaxHosts)
	case r.Duration > MaxDuration:
		return fmt.Errorf("%w: duration %g exceeds the %g limit", ErrInvalidRequest, r.Duration, float64(MaxDuration))
	case r.Rate > MaxRate:
		return fmt.Errorf("%w: rate %g exceeds the %g limit", ErrInvalidRequest, r.Rate, float64(MaxRate))
	case r.Scale > MaxScale:
		return fmt.Errorf("%w: scale %d exceeds the %d limit", ErrInvalidRequest, r.Scale, MaxScale)
	}
	p := r.params().Normalized()
	if budget := p.Duration * p.Rate * float64(p.Scale); budget > MaxEventBudget {
		return fmt.Errorf("%w: duration×rate×scale demands ~%.3g events (limit %g)",
			ErrInvalidRequest, budget, float64(MaxEventBudget))
	}
	windows := r.windows()
	if windows > MaxWindows {
		return fmt.Errorf("%w: window %g splits the run into %.0f windows (limit %d)",
			ErrInvalidRequest, r.Window, windows, MaxWindows)
	}
	if r.IncludeMatrices {
		// One grid per window plus the aggregate.
		return checkCells("include_matrices", windows+1, r.Hosts)
	}
	return nil
}

// windows is the number of aggregation windows the request splits
// its run into: 0 without a window.
func (r GenerateRequest) windows() float64 {
	if r.Window <= 0 {
		return 0
	}
	return math.Ceil(r.params().Normalized().Duration / r.Window)
}

// checkCells rejects a response of grids dense n×n grids, n the
// scaled network size, whose cells would exceed MaxCellBudget.
// Callers run it before any work.
func checkCells(what string, grids float64, hosts int) error {
	n := float64(netsim.ScaledSize(hosts))
	if cells := grids * n * n; cells > MaxCellBudget {
		return fmt.Errorf("%w: %s would carry %.0f dense cells (%.0f grids of %.0f×%.0f), over the %d-cell budget",
			ErrInvalidRequest, what, cells, grids, n, n, MaxCellBudget)
	}
	return nil
}

// paramsKey is the canonical identity shared by every cached kind:
// the canonical spec string plus every parameter the traffic depends
// on, normalized so spellings that configure the same run collide.
// The worker count is deliberately absent — the engine is
// worker-count deterministic.
func paramsKey(kind, canonicalSpec string, hosts int, seed int64, p netsim.Params) string {
	pn := p.Normalized()
	return fmt.Sprintf("%s|%s|spec=%s|n=%d|seed=%d|dur=%g|rate=%g|scale=%d",
		Version, kind, canonicalSpec, hosts, seed, pn.Duration, pn.Rate, pn.Scale)
}

// cacheKey is the canonical identity of the result this request
// computes. IncludeMatrices is absent because it only changes the
// JSON encoding — the cell grids are derived per call, never stored.
func (r GenerateRequest) cacheKey(canonicalSpec string, hosts int) string {
	return paramsKey("gen", canonicalSpec, hosts, r.Seed, r.params()) +
		fmt.Sprintf("|win=%g", r.Window)
}

// AnalyzeRequest asks for the pattern-classifier reading of a
// traffic matrix: either generate-and-analyze a spec (served from
// the same cache as Generate) or analyze a matrix posted directly —
// the "what is this traffic I captured?" path.
type AnalyzeRequest struct {
	// Spec, when set, generates the scenario and analyzes its
	// aggregate. Mutually exclusive with Matrix.
	Spec string `json:"spec,omitempty"`
	// Matrix, when set, is analyzed as posted: square rows of
	// non-negative packet counts.
	Matrix [][]int `json:"matrix,omitempty"`
	// BlueEnd and GreyEnd optionally place the blue→grey→red zone
	// boundaries for a posted matrix (host order is assumed zoned).
	// Zero selects a standard layout for the matrix size.
	BlueEnd int `json:"blue_end,omitempty"`
	GreyEnd int `json:"grey_end,omitempty"`
	// The remaining fields parameterize the Spec path exactly like
	// GenerateRequest.
	Hosts    int     `json:"hosts,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Scale    int     `json:"scale,omitempty"`
}

// ModuleRequest asks for a playable learning module: either
// synthesized from a scenario run (Spec) or built from a paper
// figure panel (Pattern).
type ModuleRequest struct {
	// Spec names a scenario or composition to synthesize from.
	// Mutually exclusive with Pattern.
	Spec string `json:"spec,omitempty"`
	// Pattern is a figure-catalog pattern ID (see Catalog.Patterns),
	// e.g. "fig9c-ddos-attack".
	Pattern string `json:"pattern,omitempty"`
	// Scenario-path parameters, as in GenerateRequest.
	Hosts    int     `json:"hosts,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Scale    int     `json:"scale,omitempty"`
}

// CampaignRequest asks for a whole synthesized course: an overview
// lesson plus a window-by-window timeline lesson.
type CampaignRequest struct {
	// Spec names the scenario or composition to build the course
	// from. Required.
	Spec string `json:"spec"`
	// Window is the timeline aggregation window in seconds.
	// Required (positive).
	Window float64 `json:"window"`
	// Scenario parameters, as in GenerateRequest.
	Hosts    int     `json:"hosts,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Scale    int     `json:"scale,omitempty"`
}

// resolveSpec turns a request's spec string — a bare catalog name or
// a composition expression — into a scenario through netsim.ParseSpec.
// The filesystem is never touched.
func resolveSpec(spec string) (netsim.Scenario, error) {
	s, err := netsim.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	return s, nil
}

// ResolveSpecArg resolves a CLI -spec argument — an inline
// expression, a bare catalog name, or a path to a spec file — into
// the canonical spec string a request carries. File access stays in
// the front-end (readFile is typically os.ReadFile); the service
// itself never reads the filesystem, so a served deployment cannot
// be pointed at arbitrary paths.
func ResolveSpecArg(arg string, readFile func(string) ([]byte, error)) (string, error) {
	s, err := netsim.LoadSpec(arg, readFile)
	if err != nil {
		return "", err
	}
	return netsim.SpecString(s), nil
}
