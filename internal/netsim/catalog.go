package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Params configures one scenario run. Zero values select sensible
// defaults, so Params{} is always runnable on any network a scenario
// accepts.
type Params struct {
	// Duration is the scenario length in seconds (default 40).
	Duration float64
	// Rate is the intensity hint in events per second for the
	// scenarios that stream open-ended traffic (default 4). Scripted
	// scenarios with fixed casts (attack, ddos, worm) ignore it.
	Rate float64
	// Scale multiplies the scenario's volume by repeating its script
	// (default 1). Scaled repetitions shard cleanly across workers.
	Scale int
}

// validate rejects parameter fields no scenario arithmetic can give
// meaning to: NaN and ±Inf durations or rates.
func (p Params) validate() error {
	if math.IsNaN(p.Duration) || math.IsInf(p.Duration, 0) {
		return fmt.Errorf("netsim: duration must be finite, got %g", p.Duration)
	}
	if math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("netsim: rate must be finite, got %g", p.Rate)
	}
	return nil
}

// Normalized returns the parameters a run actually executes with:
// zero fields replaced by the documented defaults. Two Params with
// the same Normalized form configure identical runs, which is what
// lets the api layer use the normalized form in cache keys.
func (p Params) Normalized() Params { return p.withDefaults() }

// withDefaults fills zero fields with the documented defaults.
func (p Params) withDefaults() Params {
	if p.Duration <= 0 {
		p.Duration = 40
	}
	if p.Rate <= 0 {
		p.Rate = 4
	}
	if p.Scale < 1 {
		p.Scale = 1
	}
	return p
}

// Scenario is a pluggable traffic script. Instead of returning one
// monolithic trace, a scenario partitions its workload into
// independent chunks; each chunk is generated with its own
// deterministically seeded RNG, so any assignment of chunks to
// workers accumulates the same aggregate traffic matrix. This is the
// contract that makes parallel generation reproducible: the engine
// may run chunks in any order on any number of goroutines.
type Scenario interface {
	// Name is the catalog key ("ddos", "worm", …).
	Name() string
	// Description is a one-line summary for catalog listings.
	Description() string
	// Shape names the traffic-matrix pattern the scenario draws —
	// the concept a student should recognize in the aggregate.
	Shape() string
	// Chunks returns the number of independent generation units for
	// the configuration. It must be ≥ 1 and must not depend on
	// worker count.
	Chunks(net *Network, p Params) int
	// Emit generates chunk k's events through emit. It must derive
	// all randomness from rng and must not retain state across
	// calls: chunk k's output is a pure function of (net, p, k) and
	// the rng it is handed.
	Emit(net *Network, rng *rand.Rand, p Params, chunk int, emit func(Event)) error
}

// ChunkSpanner is optionally implemented by scenarios whose chunks
// are time-local: ChunkSpan reports a conservative bound [start, end]
// on the event timestamps chunk k can emit under the given
// configuration. The streaming engine (stream.go) uses spans to seal
// aggregation windows early — a window closes once every chunk whose
// span overlaps it has finished — so a span must always cover the
// chunk's real emissions: padding is safe and merely delays sealing,
// while an under-reported span would silently drop traffic from
// already-finalized windows (the parity suite would catch it).
// Scenarios without spans are treated as able to emit at any time,
// which keeps them correct in a stream at the cost of sealing every
// window only when the run completes.
type ChunkSpanner interface {
	ChunkSpan(net *Network, p Params, chunk int) (start, end float64)
}

// chunkSpan resolves a chunk's conservative time bounds: the
// scenario's own when it publishes them, the whole timeline (and
// beyond) otherwise.
func chunkSpan(s Scenario, net *Network, p Params, chunk int) (start, end float64) {
	if sp, ok := s.(ChunkSpanner); ok {
		return sp.ChunkSpan(net, p, chunk)
	}
	return 0, math.Inf(1)
}

// Phase is one labeled interval of a scripted scenario's timeline:
// the ground truth an analyst exercise grades against.
type Phase struct {
	// Label names the phase (an attack stage, a DDoS component…).
	Label string
	// Start and End bound the phase in seconds.
	Start, End float64
}

// Scheduler is implemented by scenarios whose script follows a fixed
// phase timeline. The engine and twsim surface the schedule as
// ground truth next to the classifier's reading.
type Scheduler interface {
	Schedule(p Params) []Phase
}

// builtins is the fixed scenario catalog in name order, and catalog
// indexes it by name. Both are built once at package init and never
// written again, so what a run resolves never depends on what else
// ran in the process.
var builtins, catalog = buildCatalog(
	backgroundScenario{}, scanScenario{}, attackScenario{}, ddosScenario{},
	wormScenario{}, exfilScenario{}, flashCrowdScenario{}, beaconScenario{},
)

// catalogList is the name list the unknown-scenario error quotes.
var catalogList = func() string {
	names := make([]string, len(builtins))
	for i, s := range builtins {
		names[i] = s.Name()
	}
	return strings.Join(names, ", ")
}()

// buildCatalog sorts the built-ins by name and indexes them.
func buildCatalog(all ...Scenario) ([]Scenario, map[string]Scenario) {
	sort.Slice(all, func(i, j int) bool { return all[i].Name() < all[j].Name() })
	byName := make(map[string]Scenario, len(all))
	for _, s := range all {
		byName[s.Name()] = s
	}
	return all, byName
}

// LookupScenario finds a catalog entry by name.
func LookupScenario(name string) (Scenario, bool) {
	s, ok := catalog[name]
	return s, ok
}

// Scenarios returns the catalog sorted by name. The slice is the
// caller's own copy.
func Scenarios() []Scenario {
	return append([]Scenario(nil), builtins...)
}
