package api

import (
	"time"

	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
)

// Reading is one classifier verdict: a label and the classifier's
// confidence (for mixture readings, the component score) in [0,1].
type Reading struct {
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
}

// ProfileResult is the wire form of the structural matrix profile.
type ProfileResult struct {
	N          int     `json:"n"`
	NNZ        int     `json:"nnz"`
	DensityPct float64 `json:"density_pct"`
	Packets    int     `json:"packets"`
	MaxCell    int     `json:"max_cell"`
	MaxOutFan  int     `json:"max_out_fan"`
	MaxInFan   int     `json:"max_in_fan"`
	DiagNNZ    int     `json:"diag_nnz"`
	Symmetric  bool    `json:"symmetric"`
	Sources    int     `json:"active_sources"`
	Dests      int     `json:"active_dests"`
	Reciprocal int     `json:"reciprocal_pairs"`
}

// profileResult converts a matrix.Profile.
func profileResult(p matrix.Profile) ProfileResult {
	density := 0.0
	if p.N > 0 {
		density = 100 * float64(p.NNZ) / (float64(p.N) * float64(p.N))
	}
	return ProfileResult{
		N: p.N, NNZ: p.NNZ, DensityPct: density, Packets: p.Sum, MaxCell: p.MaxEntry,
		MaxOutFan: p.MaxOutFan, MaxInFan: p.MaxInFan, DiagNNZ: p.DiagNNZ,
		Symmetric: p.Symmetric, Sources: p.ActiveSources, Dests: p.ActiveDests,
		Reciprocal: p.Reciprocal,
	}
}

// Aggregate is the whole-run sparse-path analysis block: the
// structural profile plus every classifier's reading.
type Aggregate struct {
	Profile ProfileResult `json:"profile"`
	// Behavior is nil when the behavior classifier abstains.
	Behavior *Reading `json:"behavior,omitempty"`
	Topology string   `json:"topology"`
	Attack   Reading  `json:"attack"`
	// Mixture is the disentangle reading: component shapes the
	// mixture classifier recognizes, strongest first.
	Mixture []Reading `json:"mixture,omitempty"`
}

// Hub identifies a supernode in a window or aggregate matrix.
type Hub struct {
	Host      string `json:"host"`
	Direction string `json:"direction"` // "in" or "out"
	Fan       int    `json:"fan"`
	Packets   int    `json:"packets"`
}

// Phase is one labeled interval of the ground-truth schedule.
type Phase struct {
	Label string  `json:"label"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Timings reports the run's wall-clock split. Durations marshal as
// nanoseconds.
type Timings struct {
	// Generate covers event generation on the worker pool together
	// with the window and aggregate folds, which run in the same pass.
	Generate time.Duration `json:"generate_ns"`
	// Analyze covers profiling and every classifier pass.
	Analyze time.Duration `json:"analyze_ns"`
}

// WindowResult is one aggregation interval of the per-window view,
// with its classifier readings.
type WindowResult struct {
	Index   int     `json:"index"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Events  int     `json:"events"`
	Packets int     `json:"packets"`
	NNZ     int     `json:"nnz"`
	Dropped int     `json:"dropped,omitempty"`
	// AttackStage, DDoS, and Hub are nil for empty windows (and DDoS
	// also when the network's zone layout fits no DDoS cast).
	AttackStage *Reading `json:"attack_stage,omitempty"`
	DDoS        *Reading `json:"ddos,omitempty"`
	Hub         *Hub     `json:"hub,omitempty"`
	// Cells is the dense grid, present only when the request set
	// IncludeMatrices.
	Cells [][]int `json:"cells,omitempty"`
	// Matrix is the window's CSR for in-process front-ends (twsim
	// renders from it); it does not travel over the wire.
	Matrix *matrix.CSR `json:"-"`
}

// GenerateResult is the full response to a GenerateRequest. Results
// are immutable once returned: the service may hand the same inner
// data to many callers from the cache.
type GenerateResult struct {
	Version string `json:"version"`
	// Spec is the canonical spec string (the cache identity);
	// Scenario is the scenario's display name.
	Spec     string `json:"spec"`
	Scenario string `json:"scenario"`
	Shape    string `json:"shape"`
	Hosts    int    `json:"hosts"`
	Seed     int64  `json:"seed"`
	// Workers is the resolved worker count the run used. It does not
	// affect the traffic (the engine is worker-count deterministic).
	Workers int `json:"workers"`
	// Duration is the normalized run length in seconds.
	Duration float64  `json:"duration"`
	Events   int      `json:"events"`
	Packets  int      `json:"packets"`
	Labels   []string `json:"labels"`
	// Schedule is the ground-truth phase timeline, when the scenario
	// publishes one.
	Schedule []Phase `json:"schedule,omitempty"`
	// ComposedOf lists the primitive leaves of a composed scenario.
	ComposedOf []string       `json:"composed_of,omitempty"`
	Windows    []WindowResult `json:"windows,omitempty"`
	Aggregate  Aggregate      `json:"aggregate"`
	// Cells is the aggregate dense grid, present only when the
	// request set IncludeMatrices.
	Cells   [][]int `json:"cells,omitempty"`
	Timings Timings `json:"timings"`
	// CacheHit reports whether this response was served from the
	// result cache (per-call; the cached copy itself stores false).
	CacheHit bool `json:"cache_hit"`

	// In-process handles for local front-ends; never serialized.
	// Renderers needing the zone color grid derive it on demand
	// (Zones.ColorMatrix is an O(n²) dense build, too costly to
	// compute for callers that never draw).
	Network      *netsim.Network `json:"-"`
	Zones        patterns.Zones  `json:"-"`
	AggregateCSR *matrix.CSR     `json:"-"`

	// hits is the cache entry's stored-body holder, set on a result
	// the service caches. body is the stored encoding WriteJSON writes
	// for this view (a cache hit's, or a proxied backend's answer),
	// valid while self is the view's own address. encoding/json never
	// sees any of the three.
	hits *hitBodies
	body []byte
	self *GenerateResult
}

// AnalyzeResult is the response to an AnalyzeRequest.
type AnalyzeResult struct {
	Version string `json:"version"`
	// Source is "spec" or "matrix".
	Source string `json:"source"`
	Spec   string `json:"spec,omitempty"`
	Hosts  int    `json:"hosts"`
	// Aggregate is the classifier block over the analyzed matrix.
	Aggregate Aggregate `json:"aggregate"`
	// Supernodes lists every qualifying hub, busiest first.
	Supernodes []Hub `json:"supernodes,omitempty"`
	CacheHit   bool  `json:"cache_hit"`

	// body and self bind a stored encoding to this view, as on
	// GenerateResult.
	body []byte
	self *AnalyzeResult
}

// ScenarioInfo is one catalog entry in a CatalogResult.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Shape       string `json:"shape"`
}

// PatternInfo is one figure-catalog panel in a CatalogResult.
type PatternInfo struct {
	ID     string `json:"id"`
	Family string `json:"family"`
	Figure string `json:"figure"`
	Title  string `json:"title"`
}

// CatalogResult lists everything the service can produce: runnable
// scenarios (including runtime-registered composites) and the paper's
// figure patterns.
type CatalogResult struct {
	Version   string         `json:"version"`
	Scenarios []ScenarioInfo `json:"scenarios"`
	Patterns  []PatternInfo  `json:"patterns"`
}
