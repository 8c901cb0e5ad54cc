package api

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/player"
)

// DefaultCacheCapacity bounds the result cache when no option
// overrides it.
const DefaultCacheCapacity = 64

// Service is the façade instance: one per process (twserve) or per
// command invocation (the CLIs). All methods are safe for concurrent
// use.
type Service struct {
	cacheCap  int
	noPooling bool
	cache     *lruCache
	sessions  *sessionStore
	flights   flightGroup
	// players is the account layer (see internal/player): mutable
	// per-user state served beside — never through — the result
	// cache.
	players *player.Engine
	// arena pools the generation pipeline's builder storage across
	// requests (nil when pooling is disabled — every netsim arena
	// entry point treats a nil arena as "allocate fresh", and the two
	// modes are bit-identical; see the pooled-vs-reference property
	// suite). Results handed to callers never alias arena storage:
	// CSR outputs are always freshly allocated, which is what lets
	// the LRU cache hold them forever without the arena ever
	// reclaiming a cached buffer.
	arena *netsim.Arena
	// scenarios resolves extra bare names before netsim's fixed
	// catalog. Only in-package tests set it, to give one service a
	// slow or counting scenario without touching the catalog every
	// other service reads.
	scenarios map[string]netsim.Scenario
}

// Option configures a Service under construction.
type Option func(*Service)

// WithCacheCapacity bounds the result cache to n entries; n ≤ 0
// disables caching.
func WithCacheCapacity(n int) Option { return func(s *Service) { s.cacheCap = n } }

// WithoutPooling disables the buffer arena: every request allocates
// fresh, exactly the pre-arena behaviour. The output is bit-identical
// either way; the option exists for A/B benchmarking and as the
// reference side of the pooling parity suite.
func WithoutPooling() Option { return func(s *Service) { s.noPooling = true } }

// New builds a Service with the given options.
func New(opts ...Option) *Service {
	s := &Service{cacheCap: DefaultCacheCapacity}
	for _, opt := range opts {
		opt(s)
	}
	s.cache = newLRUCache(s.cacheCap)
	s.sessions = newSessionStore()
	if !s.noPooling {
		s.arena = netsim.NewArena()
	}
	if s.players == nil {
		s.players = player.NewEngine(player.NewMemStore())
	}
	return s
}

// resolveSpec resolves a request spec for this service: its own
// scenario table first, then netsim.
func (svc *Service) resolveSpec(spec string) (netsim.Scenario, error) {
	if s, ok := svc.scenarios[spec]; ok {
		return s, nil
	}
	return resolveSpec(spec)
}

// CacheStats snapshots the result cache counters.
func (svc *Service) CacheStats() CacheStats { return svc.cache.stats() }

// ArenaStats snapshots the buffer arena's pool counters (zero when
// pooling is disabled).
func (svc *Service) ArenaStats() netsim.ArenaStats { return svc.arena.Stats() }

// Sessions snapshots the in-flight requests, oldest first.
func (svc *Service) Sessions() []SessionInfo { return svc.sessions.Snapshot() }

// SessionCount counts the in-flight requests without building the
// snapshot — the /v1/stats hot probe.
func (svc *Service) SessionCount() int { return svc.sessions.Len() }

// CancelSession aborts an in-flight request by ID, reporting whether
// it was found. The cancelled call returns context.Canceled to its
// own caller; nothing partial is cached.
func (svc *Service) CancelSession(id int64) bool { return svc.sessions.CancelByID(id) }

// resolveWorkers returns the request's generation worker count, or
// all CPUs when the request leaves it at 0.
func resolveWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.NumCPU()
}

// Generate runs the full pipeline for the request: deterministic
// event generation on the worker pool, the optional per-window view,
// and the aggregate sparse-path analysis. Repeated requests for the
// same canonical spec and parameters are served from the LRU cache,
// and concurrent identical cold requests coalesce onto one run.
// Cancelling ctx aborts the sharded generation mid-run; a cancelled
// or failed run never enters the cache.
func (svc *Service) Generate(ctx context.Context, req GenerateRequest) (*GenerateResult, error) {
	res, hit, err := svc.cachedGenerate(ctx, req)
	if err != nil {
		return nil, err
	}
	return finishResult(res, hit, req.IncludeMatrices), nil
}

// hitBodies is a cache entry's holder for its stored encodings: one
// generate body per include_matrices variant plus the spec-path
// /v1/analyze answer. Each is encoded on the entry's first hit that
// needs it, never on the miss, so an entry that has only missed holds
// none.
type hitBodies struct {
	generate [2]storedBody // indexed by include_matrices
	analyze  storedBody
}

// cachedGenerate returns the cached result for the request, running
// the cold path on a miss. hit reports that the result came from the
// cache or from a concurrent caller's run. The network is built only
// inside the run: the key needs just its size.
func (svc *Service) cachedGenerate(ctx context.Context, req GenerateRequest) (res *GenerateResult, hit bool, err error) {
	if err := req.validate(); err != nil {
		return nil, false, err
	}
	scn, err := svc.resolveSpec(req.Spec)
	if err != nil {
		return nil, false, err
	}
	canonical := netsim.SpecString(scn)
	key := req.cacheKey(canonical, netsim.ScaledSize(req.Hosts))
	if v, ok := svc.cache.get(key); ok {
		return v.(*GenerateResult), true, nil
	}
	v, shared, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "generate", key)
		defer end()
		r, err := svc.generate(fctx, scn, canonical, netsim.ScaledNetwork(req.Hosts), req)
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		r.hits = new(hitBodies)
		svc.cache.put(key, r)
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*GenerateResult), shared, nil
}

// finishResult builds the per-call view of a (possibly shared)
// result: the hit marker and the opt-in dense cell grids, derived on
// demand so the cached result itself stays encoding-neutral — two
// requests differing only in IncludeMatrices share one entry and
// each still gets exactly what it asked for.
//
// The view defensively copies every mutable header the cached value
// owns — label and schedule slices, the window list with its Reading
// and Hub pointers, the aggregate's behavior and mixture readings. A
// warm hit used to alias them straight out of the cache, so one
// caller appending to Labels or rewriting a window's AttackStage
// silently corrupted every later response for the same key. The CSR matrices stay shared on purpose:
// they are the immutable bulk, never reclaimed or rewritten (the
// arena never pools CSR storage — a cached buffer is permanently the
// cache's), so sharing them is safe where sharing the headers was
// not.
//
// A hit view also carries its cache entry's stored body for its
// variant (see hitBodies), encoded from the first such view before
// any caller saw it, so WriteJSON writes the view as one Write of
// those bytes. The body is bound to the view's address: a copy,
// changed or not, is encoded afresh, while a view changed in place
// still writes the stored bytes — copy a view before editing it for
// the wire.
func finishResult(res *GenerateResult, hit, includeMatrices bool) *GenerateResult {
	out := *res
	out.CacheHit = hit
	out.Labels = append([]string(nil), res.Labels...)
	out.Schedule = append([]Phase(nil), res.Schedule...)
	out.ComposedOf = append([]string(nil), res.ComposedOf...)
	out.Aggregate = copyAggregate(res.Aggregate)
	if len(res.Windows) > 0 {
		ws := make([]WindowResult, len(res.Windows))
		copy(ws, res.Windows)
		for i := range ws {
			if r := ws[i].AttackStage; r != nil {
				cp := *r
				ws[i].AttackStage = &cp
			}
			if r := ws[i].DDoS; r != nil {
				cp := *r
				ws[i].DDoS = &cp
			}
			if h := ws[i].Hub; h != nil {
				cp := *h
				ws[i].Hub = &cp
			}
		}
		out.Windows = ws
	}
	variant := 0
	if includeMatrices {
		variant = 1
		out.Cells = out.AggregateCSR.ToRows()
		for i := range out.Windows {
			out.Windows[i].Cells = out.Windows[i].Matrix.ToRows()
		}
	}
	if hit && res.hits != nil {
		out.body, out.self = res.hits.generate[variant].of(&out), &out
	}
	return &out
}

// copyAggregate copies the aggregate block's mutable parts, the
// behavior reading and the mixture, so a view's edits cannot reach
// the cached result.
func copyAggregate(a Aggregate) Aggregate {
	if a.Behavior != nil {
		b := *a.Behavior
		a.Behavior = &b
	}
	a.Mixture = append([]Reading(nil), a.Mixture...)
	return a
}

// generate is the cold path behind Generate: the streaming fold
// builds the per-window view and the aggregate CSR in one pass over
// the events, with no trace and no sort — the same engine call
// GenerateStream makes, so batch and stream share one pipeline.
func (svc *Service) generate(ctx context.Context, scn netsim.Scenario, canonical string, net *netsim.Network, req GenerateRequest) (*GenerateResult, error) {
	zones, err := net.Zones()
	if err != nil {
		return nil, err
	}
	workers := resolveWorkers(req.Workers)
	p := req.params().Normalized()
	res := &GenerateResult{
		Version: Version, Spec: canonical, Scenario: scn.Name(), Shape: scn.Shape(),
		Hosts: net.Len(), Seed: req.Seed, Workers: workers, Duration: p.Duration,
		Labels: net.Labels(), Network: net, Zones: zones,
	}
	res.Schedule, res.ComposedOf = runHeader(scn, p)

	genStart := time.Now()
	var csr *matrix.CSR
	var stats netsim.Stats
	if req.Window > 0 {
		roles, rolesErr := patterns.AssignDDoSRoles(zones)
		// onWindow runs under the engine's emit lock, one window at a
		// time in index order, so the append needs no lock of its own.
		csr, stats, err = netsim.StreamCSRArena(ctx, svc.arena, scn, net, req.Seed, workers, p, req.Window, p.Duration,
			func(k int, w netsim.SparseWindow) error {
				res.Windows = append(res.Windows, windowResult(k, w, zones, roles, rolesErr, res.Labels))
				return nil
			})
	} else {
		csr, stats, err = netsim.GenerateCSRArena(ctx, svc.arena, scn, net, req.Seed, workers, p)
	}
	if err != nil {
		return nil, err
	}
	genElapsed := time.Since(genStart)
	res.Events, res.Packets = stats.Events, stats.Packets

	analyzeStart := time.Now()
	res.Aggregate = analyzeMatrix(csr, zones)
	res.AggregateCSR = csr
	res.Timings = Timings{Generate: genElapsed, Analyze: time.Since(analyzeStart)}
	return res, nil
}

// runHeader returns the ground-truth phase timeline (when the
// scenario publishes one) and the primitive leaves of a composed
// scenario: the run header the batch result and the stream's meta
// frame share.
func runHeader(scn netsim.Scenario, p netsim.Params) (schedule []Phase, composedOf []string) {
	if sched, ok := scn.(netsim.Scheduler); ok {
		for _, ph := range sched.Schedule(p) {
			schedule = append(schedule, Phase{Label: ph.Label, Start: ph.Start, End: ph.End})
		}
	}
	if _, ok := scn.(netsim.Composite); ok {
		for _, leaf := range netsim.Leaves(scn) {
			composedOf = append(composedOf, leaf.Name())
		}
	}
	return schedule, composedOf
}

// windowSummaries recycles the per-window summary's storage: a
// window's readings are scalars copied out of its summary, so the
// summary is free again as soon as windowResult returns.
var windowSummaries = sync.Pool{New: func() any { return new(patterns.Summary) }}

// windowResult builds one interval's WindowResult with its
// classifier readings, all read off one summary of the window. It is
// the single construction point shared by the batch per-window view
// and the streaming path, which is what guarantees a streamed window
// frame carries exactly the readings the batch result would for the
// same window.
func windowResult(k int, w netsim.SparseWindow, zones patterns.Zones, roles patterns.DDoSRoles, rolesErr error, labels []string) WindowResult {
	wr := WindowResult{
		Index: k, Start: w.Start, End: w.End,
		Events: w.Events, Packets: w.Matrix.Sum(), NNZ: w.Matrix.NNZ(),
		Dropped: w.Dropped, Matrix: w.Matrix,
	}
	if wr.NNZ > 0 {
		cast := &roles
		if rolesErr != nil {
			cast = nil
		}
		s := windowSummaries.Get().(*patterns.Summary).Summarize(w.Matrix, zones, cast)
		defer windowSummaries.Put(s)
		stage, conf := s.AttackStage()
		wr.AttackStage = &Reading{Label: stage.String(), Confidence: conf}
		if cast != nil {
			comp, dconf := s.DDoS()
			wr.DDoS = &Reading{Label: comp.String(), Confidence: dconf}
		}
		if h, ok := topHub(&s.Summary, patterns.SupernodeFanThreshold); ok {
			wr.Hub = &Hub{Host: labels[h.Index], Direction: h.Direction, Fan: h.Fan, Packets: h.Packets}
		}
	}
	return wr
}

// topHub is the first of s.Supernodes(minFan) — fan descending, then
// index, then "in" before "out" — found in one pass over the fans
// without building or sorting the whole list.
func topHub(s *matrix.Summary, minFan int) (matrix.HotSpot, bool) {
	best := matrix.HotSpot{Fan: minFan - 1}
	for i := 0; i < s.N; i++ {
		if f := s.InFan[i]; f > best.Fan {
			best = matrix.HotSpot{Index: i, Fan: f, Packets: s.ColSum[i], Direction: "in"}
		}
		if f := s.OutFan[i]; f > best.Fan {
			best = matrix.HotSpot{Index: i, Fan: f, Packets: s.RowSum[i], Direction: "out"}
		}
	}
	return best, best.Direction != ""
}

// analyzeMatrix runs every aggregate classifier over one summary of
// m.
func analyzeMatrix(m matrix.Matrix, zones patterns.Zones) Aggregate {
	return aggregateOf(new(patterns.Summary).Summarize(m, zones, nil))
}

// aggregateOf reads the aggregate block off a summary.
func aggregateOf(s *patterns.Summary) Aggregate {
	agg := Aggregate{Profile: profileResult(s.Profile)}
	if b, conf := s.Behavior(); b != patterns.BehaviorUnknown {
		agg.Behavior = &Reading{Label: b.String(), Confidence: conf}
	}
	agg.Topology = s.Topology().String()
	stage, sconf := s.AttackStage()
	agg.Attack = Reading{Label: stage.String(), Confidence: sconf}
	for _, c := range s.Mixture() {
		agg.Mixture = append(agg.Mixture, Reading{Label: c.Label, Confidence: c.Score})
	}
	return agg
}

// supernodeHubs converts a summary's supernode list to wire form.
func supernodeHubs(s *matrix.Summary, labels []string) []Hub {
	var out []Hub
	for _, h := range s.Supernodes(patterns.SupernodeFanThreshold) {
		out = append(out, Hub{Host: labels[h.Index], Direction: h.Direction, Fan: h.Fan, Packets: h.Packets})
	}
	return out
}

// Analyze classifies traffic: the Spec path generates (or re-serves
// from cache) a scenario run and reads its aggregate; the Matrix
// path classifies a posted matrix directly.
func (svc *Service) Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResult, error) {
	hasSpec := strings.TrimSpace(req.Spec) != ""
	hasMatrix := len(req.Matrix) > 0
	if hasSpec == hasMatrix {
		return nil, fmt.Errorf("%w: exactly one of spec or matrix must be set", ErrInvalidRequest)
	}
	if hasSpec {
		gres, hit, err := svc.cachedGenerate(ctx, GenerateRequest{
			Spec: req.Spec, Hosts: req.Hosts, Seed: req.Seed, Workers: req.Workers,
			Duration: req.Duration, Rate: req.Rate, Scale: req.Scale,
		})
		if err != nil {
			return nil, err
		}
		res := &AnalyzeResult{
			Version: Version, Source: "spec", Spec: gres.Spec, Hosts: gres.Hosts,
			Aggregate:  copyAggregate(gres.Aggregate),
			Supernodes: supernodeHubs(new(matrix.Summary).Summarize(gres.AggregateCSR, nil), gres.Labels),
			CacheHit:   hit,
		}
		if hit && gres.hits != nil {
			// Like finishResult: the entry's stored answer, encoded
			// from the first hit's view before its caller saw it.
			res.body, res.self = gres.hits.analyze.of(res), res
		}
		return res, nil
	}

	ctx, end := svc.sessions.Begin(ctx, "analyze", fmt.Sprintf("matrix %dx%d", len(req.Matrix), len(req.Matrix)))
	defer end()
	if len(req.Matrix) > MaxHosts {
		return nil, fmt.Errorf("%w: matrix size %d exceeds the %d limit", ErrInvalidRequest, len(req.Matrix), MaxHosts)
	}
	for i, row := range req.Matrix {
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("%w: matrix cell [%d][%d] = %d; packet counts must not be negative", ErrInvalidRequest, i, j, v)
			}
		}
	}
	dense, err := matrix.FromRows(req.Matrix)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if dense.Rows() != dense.Cols() {
		return nil, fmt.Errorf("%w: matrix must be square, got %dx%d", ErrInvalidRequest, dense.Rows(), dense.Cols())
	}
	zones, err := zonesFor(dense.Rows(), req.BlueEnd, req.GreyEnd)
	if err != nil {
		return nil, err
	}
	sum := new(patterns.Summary).Summarize(dense, zones, nil)
	res := &AnalyzeResult{
		Version: Version, Source: "matrix", Hosts: dense.Rows(),
		Aggregate:  aggregateOf(sum),
		Supernodes: supernodeHubs(&sum.Summary, matrixLabels(dense.Rows())),
	}
	// The classification is synchronous and quick, so cancellation
	// is honored at call granularity: a cancelled session (or
	// caller) gets the context error, not a result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// zonesFor places the blue→grey→red boundaries for a posted matrix:
// explicit boundaries when given, the paper's standard 10-host
// layout at n=10, and the scaled role mix proportions otherwise.
func zonesFor(n, blueEnd, greyEnd int) (patterns.Zones, error) {
	if blueEnd != 0 || greyEnd != 0 {
		z := patterns.Zones{N: n, BlueEnd: blueEnd, GreyEnd: greyEnd}
		if blueEnd < 0 || greyEnd < blueEnd || greyEnd > n {
			return patterns.Zones{}, fmt.Errorf("%w: zone split blue_end=%d grey_end=%d invalid for n=%d",
				ErrInvalidRequest, blueEnd, greyEnd, n)
		}
		return z, nil
	}
	if n == 10 {
		return patterns.Zones{N: 10, BlueEnd: 4, GreyEnd: 6}, nil
	}
	red := n * 3 / 20
	if red < 1 {
		red = 1
	}
	grey := n * 3 / 20
	if grey < 1 {
		grey = 1
	}
	blue := n - red - grey
	if blue < 1 {
		blue = 1
	}
	// Tiny matrices cannot hold all three zones at the floor sizes;
	// give blue priority and shrink grey so the boundaries stay
	// within the axis (a 1×1 matrix is all blue).
	if blue > n {
		blue = n
	}
	if blue+grey > n {
		grey = n - blue
	}
	return patterns.Zones{N: n, BlueEnd: blue, GreyEnd: blue + grey}, nil
}

// matrixLabels names the axis of a posted matrix: the paper's
// standard labels at n=10, positional names otherwise.
func matrixLabels(n int) []string {
	if n == 10 {
		return netsim.StandardNetwork().Labels()
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("H%d", i)
	}
	return out
}

// Module synthesizes a playable learning module: from a scenario run
// (Spec) via the bridge, or from a paper figure panel (Pattern).
// Spec-path modules are cached and coalesced like Generate results;
// returned modules are shared and must be treated as immutable.
func (svc *Service) Module(ctx context.Context, req ModuleRequest) (*core.Module, error) {
	hasSpec := strings.TrimSpace(req.Spec) != ""
	hasPattern := strings.TrimSpace(req.Pattern) != ""
	if hasSpec == hasPattern {
		return nil, fmt.Errorf("%w: exactly one of spec or pattern must be set", ErrInvalidRequest)
	}
	if hasPattern {
		m, err := modules.Pattern(req.Pattern)
		if errors.Is(err, modules.ErrUnknownPattern) {
			return nil, fmt.Errorf("%w: unknown pattern %q (see the catalog's patterns list)", ErrInvalidRequest, req.Pattern)
		}
		return m, err
	}
	// Reuse the generate-request field validation for the shared
	// scenario parameters.
	gr := GenerateRequest{Spec: req.Spec, Hosts: req.Hosts, Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	if err := gr.validate(); err != nil {
		return nil, err
	}
	// A module carries two grids: traffic and colors.
	if err := checkCells("module", 2, req.Hosts); err != nil {
		return nil, err
	}
	scn, err := svc.resolveSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	p := netsim.Params{Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	key := paramsKey("module", netsim.SpecString(scn), netsim.ScaledSize(req.Hosts), req.Seed, p)
	if v, ok := svc.cache.get(key); ok {
		return v.(*core.Module), nil
	}
	m, _, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "module", key)
		defer end()
		m, err := bridge.AggregateModule(fctx, scn, netsim.ScaledNetwork(req.Hosts), req.Seed, runtime.NumCPU(), p)
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		svc.cache.put(key, m)
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return m.(*core.Module), nil
}

// Campaign synthesizes a whole course from a scenario: overview
// lesson plus window-by-window timeline. Campaigns are cached and
// coalesced like Generate results; returned campaigns are shared
// and must be treated as immutable.
func (svc *Service) Campaign(ctx context.Context, req CampaignRequest) (*bridge.Campaign, error) {
	if req.Window <= 0 {
		return nil, fmt.Errorf("%w: campaign window must be positive, got %g", ErrInvalidRequest, req.Window)
	}
	gr := GenerateRequest{Spec: req.Spec, Hosts: req.Hosts, Duration: req.Duration, Rate: req.Rate, Scale: req.Scale, Window: req.Window}
	if err := gr.validate(); err != nil {
		return nil, err
	}
	// The overview and each window's module carry two grids apiece.
	if err := checkCells("campaign", 2*(gr.windows()+1), req.Hosts); err != nil {
		return nil, err
	}
	scn, err := svc.resolveSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	p := netsim.Params{Duration: req.Duration, Rate: req.Rate, Scale: req.Scale}
	key := paramsKey("campaign", netsim.SpecString(scn), netsim.ScaledSize(req.Hosts), req.Seed, p) +
		fmt.Sprintf("|win=%g", req.Window)
	if v, ok := svc.cache.get(key); ok {
		return v.(*bridge.Campaign), nil
	}
	c, _, err := svc.flights.do(ctx, key, func() (any, error) {
		fctx, end := svc.sessions.Begin(ctx, "campaign", key)
		defer end()
		c, err := bridge.CampaignFromScenario(fctx, scn, netsim.ScaledNetwork(req.Hosts), req.Seed, runtime.NumCPU(), p, req.Window)
		if err != nil {
			return nil, sessionErr(fctx, err)
		}
		svc.cache.put(key, c)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return c.(*bridge.Campaign), nil
}

// Catalog lists everything the service can produce. The context is
// accepted for interface uniformity; the listing is immediate.
func (svc *Service) Catalog(context.Context) *CatalogResult {
	out := &CatalogResult{Version: Version}
	for _, s := range netsim.Scenarios() {
		out.Scenarios = append(out.Scenarios, ScenarioInfo{
			Name: s.Name(), Description: s.Description(), Shape: s.Shape(),
		})
	}
	for _, f := range patterns.Families() {
		for _, e := range patterns.ByFamily(f) {
			out.Patterns = append(out.Patterns, PatternInfo{
				ID: e.ID, Family: string(e.Family), Figure: e.Figure, Title: e.Title,
			})
		}
	}
	return out
}

// WindowModule renders one window of a generated result as an
// editable learning module (no question; an educator adds one): the
// twsim -export path, kept next to the result types so front-ends
// need no matrix/patterns wiring of their own.
func WindowModule(res *GenerateResult, w *WindowResult, author string) *core.Module {
	clamped := w.Matrix.ToDense()
	clamped.Apply(func(v int) int {
		if v > core.MaxDisplayPackets {
			return core.MaxDisplayPackets
		}
		return v
	})
	name := res.Scenario
	if name != "" {
		name = strings.ToUpper(name[:1]) + name[1:]
	}
	return &core.Module{
		Name:                "Captured " + name + " Traffic",
		Size:                core.FormatSize(res.Hosts),
		Author:              author,
		AxisLabels:          res.Labels,
		TrafficMatrix:       clamped.ToRows(),
		TrafficMatrixColors: res.Zones.ColorMatrix().ToRows(),
		HasQuestion:         false,
	}
}
