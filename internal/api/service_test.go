package api

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/netsim"
)

// quick is a small, fast request used throughout the suite.
func quick(opts ...GenerateOption) GenerateRequest {
	base := []GenerateOption{WithSeed(1), WithWorkers(1), WithParams(4, 4, 1), WithWindow(2)}
	return NewGenerateRequest("scan", append(base, opts...)...)
}

func TestGenerateDeterministicAndCached(t *testing.T) {
	svc := New()
	first, err := svc.Generate(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if first.Events == 0 || first.Aggregate.Profile.NNZ == 0 {
		t.Fatalf("empty generation: %+v", first)
	}
	if first.Spec != "scan" || first.Scenario != "scan" || first.Hosts != 10 {
		t.Errorf("result header wrong: %+v", first)
	}
	if len(first.Windows) != 2 {
		t.Errorf("got %d windows, want 2", len(first.Windows))
	}

	second, err := svc.Generate(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical request missed the cache")
	}
	if !reflect.DeepEqual(first.Aggregate, second.Aggregate) ||
		first.Events != second.Events || first.Packets != second.Packets {
		t.Error("cached result differs from the computed one")
	}
	st := svc.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 len=1", st)
	}
}

// TestGenerateCanonicalKey: different spellings of the same mixture,
// zero-vs-explicit default parameters, and different worker counts
// all collapse onto one cache entry.
func TestGenerateCanonicalKey(t *testing.T) {
	svc := New()
	if _, err := svc.Generate(context.Background(),
		NewGenerateRequest("overlay(background, sequence(scan, ddos))", WithSeed(7), WithWorkers(1))); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]GenerateRequest{
		"respelled spec":    NewGenerateRequest("  overlay( background ,sequence( scan,ddos ) ) ", WithSeed(7), WithWorkers(1)),
		"explicit defaults": NewGenerateRequest("overlay(background, sequence(scan, ddos))", WithSeed(7), WithWorkers(1), WithParams(40, 4, 1)),
		"other workers":     NewGenerateRequest("overlay(background, sequence(scan, ddos))", WithSeed(7), WithWorkers(4)),
	} {
		res, err := svc.Generate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.CacheHit {
			t.Errorf("%s: did not hit the canonical cache entry", name)
		}
	}
	if st := svc.CacheStats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

func TestGenerateCacheEviction(t *testing.T) {
	svc := New(WithCacheCapacity(1))
	a := quick()
	b := quick(WithSeed(2))
	for _, req := range []GenerateRequest{a, b, a} {
		if _, err := svc.Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.CacheStats()
	// a: miss; b: miss, evicts a; a again: miss.
	if st.Hits != 0 || st.Misses != 3 || st.Evictions < 2 || st.Len != 1 {
		t.Errorf("stats = %+v, want hits=0 misses=3 evictions≥2 len=1", st)
	}
}

// slowScenario is a many-chunk, deliberately slow scenario for
// cancellation and session-registry tests. Only the services
// slowService builds resolve it.
type slowScenario struct{}

func (slowScenario) Name() string                              { return "api-slow-test" }
func (slowScenario) Description() string                       { return "slow scenario for api tests" }
func (slowScenario) Shape() string                             { return "one cell, slowly" }
func (slowScenario) Chunks(*netsim.Network, netsim.Params) int { return 400 }
func (slowScenario) Emit(net *netsim.Network, rng *rand.Rand, p netsim.Params, chunk int, emit func(netsim.Event)) error {
	time.Sleep(5 * time.Millisecond)
	emit(netsim.Event{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 1})
	return nil
}

// withScenario builds a Service that also resolves s by name, ahead
// of netsim's fixed catalog; no other service sees it.
func withScenario(s netsim.Scenario) *Service {
	svc := New()
	svc.scenarios = map[string]netsim.Scenario{s.Name(): s}
	return svc
}

// slowService is a fresh Service that serves slowScenario, and the
// spec that names it.
func slowService() (*Service, string) {
	return withScenario(slowScenario{}), slowScenario{}.Name()
}

// TestInjectedScenarioStaysInItsService: lesson content never depends
// on what else ran in the process. A fresh Service offers the same
// module answers for a primitive and a composed spec before and after
// another Service has run its injected slow scenario, and the slow
// scenario's shape never turns up as a distractor.
func TestInjectedScenarioStaysInItsService(t *testing.T) {
	specs := []string{"scan", "overlay(background, scan)"}
	answers := func() [][]string {
		t.Helper()
		svc := New()
		var out [][]string
		for _, spec := range specs {
			m, err := svc.Module(context.Background(), ModuleRequest{Spec: spec, Seed: 1, Duration: 4})
			if err != nil {
				t.Fatalf("module %s: %v", spec, err)
			}
			out = append(out, m.Answers)
		}
		return out
	}
	before := answers()

	slow, spec := slowService()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := slow.Generate(ctx, NewGenerateRequest(spec, WithWorkers(2))); err == nil {
		t.Fatal("slow scenario finished inside 30ms; it did not run")
	}

	after := answers()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("module answers changed after another service ran %s:\n before %q\n after  %q", spec, before, after)
	}
	for i, got := range after {
		for _, a := range got {
			if strings.Contains(a, slowScenario{}.Shape()) || strings.Contains(a, spec) {
				t.Errorf("%s offers the injected scenario as an answer: %q", specs[i], a)
			}
		}
	}
}

// TestCancelledContextNeverPoisonsCache is the satellite acceptance:
// a request cancelled mid-generation leaves no cache entry, and the
// same request later recomputes cleanly.
func TestCancelledContextNeverPoisonsCache(t *testing.T) {
	svc, spec := slowService()
	req := NewGenerateRequest(spec, WithWorkers(2))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := svc.Generate(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled generate: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 800*time.Millisecond {
		t.Errorf("cancelled generate still took %v", elapsed)
	}
	if st := svc.CacheStats(); st.Len != 0 {
		t.Fatalf("cancelled run left %d cache entries", st.Len)
	}

	// The same request on a live context computes and caches.
	res, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("post-cancellation request claimed a cache hit; the cancelled run poisoned the cache")
	}
	again, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("completed run was not cached")
	}
}

// TestSessionsTrackAndCancelInFlight: in-flight work is visible in
// the registry and abortable through it.
func TestSessionsTrackAndCancelInFlight(t *testing.T) {
	svc, spec := slowService()
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Generate(context.Background(), NewGenerateRequest(spec, WithWorkers(2)))
		errc <- err
	}()

	var sess []SessionInfo
	deadline := time.Now().Add(2 * time.Second)
	for len(sess) == 0 && time.Now().Before(deadline) {
		sess = svc.Sessions()
		time.Sleep(5 * time.Millisecond)
	}
	if len(sess) != 1 {
		t.Fatalf("in-flight sessions = %d, want 1", len(sess))
	}
	if sess[0].Kind != "generate" || !strings.Contains(sess[0].Key, spec) {
		t.Errorf("session = %+v", sess[0])
	}
	if !svc.CancelSession(sess[0].ID) {
		t.Fatal("CancelSession did not find the in-flight session")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSessionCancelled) {
			t.Errorf("cancelled session returned %v, want ErrSessionCancelled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled generation did not return")
	}
	if got := svc.Sessions(); len(got) != 0 {
		t.Errorf("registry still holds %d sessions after completion", len(got))
	}
	if svc.CancelSession(sess[0].ID) {
		t.Error("CancelSession found a finished session")
	}
}

func TestGenerateValidation(t *testing.T) {
	svc := New()
	for name, req := range map[string]GenerateRequest{
		"empty spec":        {},
		"negative duration": {Spec: "scan", Duration: -1},
		"nan rate":          {Spec: "scan", Rate: math.NaN()},
		"negative window":   {Spec: "scan", Window: -2},
		"negative scale":    {Spec: "scan", Scale: -1},
		"negative hosts":    {Spec: "scan", Hosts: -5},
		"unknown scenario":  {Spec: "nope"},
		"broken spec":       {Spec: "overlay(background"},
	} {
		_, err := svc.Generate(context.Background(), req)
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
		}
	}
	// The unknown-scenario message lists the catalog, pointing lost
	// users somewhere useful.
	_, err := svc.Generate(context.Background(), GenerateRequest{Spec: "nope"})
	if err == nil || !strings.Contains(err.Error(), "available:") || !strings.Contains(err.Error(), "ddos") {
		t.Errorf("unknown-scenario error %q does not list the catalog", err)
	}
}

func TestAnalyzeSpecSharesGenerateCache(t *testing.T) {
	svc := New()
	if _, err := svc.Generate(context.Background(),
		NewGenerateRequest("scan", WithSeed(1), WithWorkers(1), WithParams(4, 4, 1))); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Analyze(context.Background(), AnalyzeRequest{Spec: "scan", Seed: 1, Workers: 1, Duration: 4, Rate: 4, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("analyze of a generated spec missed the shared cache")
	}
	if res.Source != "spec" || res.Aggregate.Profile.NNZ == 0 {
		t.Errorf("analyze result = %+v", res)
	}
}

func TestAnalyzePostedMatrix(t *testing.T) {
	svc := New()
	// A 10-host matrix with a destination supernode in blue space:
	// every other host floods column 3.
	rows := make([][]int, 10)
	for i := range rows {
		rows[i] = make([]int, 10)
		if i != 3 {
			rows[i][3] = 10
		}
	}
	res, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: rows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "matrix" || res.Hosts != 10 {
		t.Errorf("result header = %+v", res)
	}
	if res.Aggregate.Profile.NNZ != 9 {
		t.Errorf("profile nnz = %d, want 9", res.Aggregate.Profile.NNZ)
	}
	if len(res.Supernodes) == 0 || res.Supernodes[0].Host != "SRV1" || res.Supernodes[0].Direction != "in" {
		t.Errorf("supernodes = %+v, want SRV1 fan-in first", res.Supernodes)
	}

	for name, req := range map[string]AnalyzeRequest{
		"neither":       {},
		"both":          {Spec: "scan", Matrix: rows},
		"ragged":        {Matrix: [][]int{{1, 2}, {3}}},
		"not square":    {Matrix: [][]int{{1, 2, 3}, {4, 5, 6}}},
		"bad zone ends": {Matrix: rows, BlueEnd: 8, GreyEnd: 4},
	} {
		if _, err := svc.Analyze(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
		}
	}
}

func TestModuleFromSpecAndPattern(t *testing.T) {
	svc := New()
	m, err := svc.Module(context.Background(), ModuleRequest{Spec: "ddos", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if issues := m.Validate(); !issues.OK() {
		t.Fatalf("spec module invalid:\n%s", issues.Errs())
	}
	if !m.HasQuestion {
		t.Error("spec module has no question")
	}

	pm, err := svc.Module(context.Background(), ModuleRequest{Pattern: "fig9c-ddos-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if issues := pm.Validate(); !issues.OK() {
		t.Fatalf("pattern module invalid:\n%s", issues.Errs())
	}

	for name, req := range map[string]ModuleRequest{
		"neither":         {},
		"both":            {Spec: "ddos", Pattern: "fig9c-ddos-attack"},
		"unknown pattern": {Pattern: "fig99-nope"},
	} {
		if _, err := svc.Module(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
		}
	}
}

func TestCampaignSynthesis(t *testing.T) {
	svc := New()
	c, err := svc.Campaign(context.Background(), CampaignRequest{Spec: "attack", Seed: 7, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Lessons) < 2 {
		t.Errorf("campaign has %d lessons, want overview + timeline", len(c.Lessons))
	}
	if _, err := svc.Campaign(context.Background(), CampaignRequest{Spec: "attack"}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("window-less campaign: err = %v, want ErrInvalidRequest", err)
	}
}

func TestCatalogListsScenariosAndPatterns(t *testing.T) {
	svc := New()
	cat := svc.Catalog(context.Background())
	if cat.Version != Version {
		t.Errorf("catalog version = %q", cat.Version)
	}
	names := map[string]bool{}
	for _, s := range cat.Scenarios {
		names[s.Name] = true
	}
	for _, want := range []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"} {
		if !names[want] {
			t.Errorf("catalog missing scenario %q", want)
		}
	}
	if len(cat.Patterns) == 0 {
		t.Error("catalog lists no figure patterns")
	}
}

func TestWindowModuleExport(t *testing.T) {
	svc := New()
	res, err := svc.Generate(context.Background(),
		NewGenerateRequest("ddos", WithSeed(2), WithWorkers(1), WithParams(4, 4, 1), WithWindow(2)))
	if err != nil {
		t.Fatal(err)
	}
	busiest := &res.Windows[0]
	for i := range res.Windows {
		if res.Windows[i].Packets > busiest.Packets {
			busiest = &res.Windows[i]
		}
	}
	m := WindowModule(res, busiest, "twsim")
	if m.Name != "Captured Ddos Traffic" || m.Author != "twsim" {
		t.Errorf("module header = %q by %q", m.Name, m.Author)
	}
	if issues := m.Validate(); !issues.OK() {
		t.Fatalf("window module invalid:\n%s", issues.Errs())
	}
}

// TestGenerateRequestBounds: one request cannot demand a network or
// window count that would exhaust a served deployment.
func TestGenerateRequestBounds(t *testing.T) {
	svc := New()
	for name, req := range map[string]GenerateRequest{
		"oversized network": {Spec: "scan", Hosts: MaxHosts + 1},
		"endless run":       {Spec: "scan", Duration: MaxDuration * 2},
		"firehose rate":     {Spec: "scan", Rate: MaxRate * 2},
		"oversized scale":   {Spec: "scan", Scale: MaxScale + 1},
		"too many windows":  {Spec: "scan", Duration: 1000, Window: 0.001},
	} {
		if _, err := svc.Generate(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", name, err)
		}
	}
}

// TestAnalyzeTinyMatrixZones: the default zone layout stays within
// the axis even for matrices too small to hold all three zones.
func TestAnalyzeTinyMatrixZones(t *testing.T) {
	svc := New()
	for n := 1; n <= 4; n++ {
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, n)
			rows[i][(i+1)%n] = 5
		}
		res, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: rows})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Aggregate.Profile.N != n {
			t.Errorf("n=%d: profile.N = %d", n, res.Aggregate.Profile.N)
		}
	}
}

// countScenario counts every emitted event so the coalescing test
// can prove how many generations actually ran.
var countEmits atomic.Int64

type countScenario struct{}

func (countScenario) Name() string                              { return "api-count-test" }
func (countScenario) Description() string                       { return "emission-counting scenario for api tests" }
func (countScenario) Shape() string                             { return "one cell, counted" }
func (countScenario) Chunks(*netsim.Network, netsim.Params) int { return 50 }
func (countScenario) Emit(net *netsim.Network, rng *rand.Rand, p netsim.Params, chunk int, emit func(netsim.Event)) error {
	countEmits.Add(1)
	time.Sleep(2 * time.Millisecond)
	emit(netsim.Event{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 1})
	return nil
}

// TestConcurrentColdRequestsCoalesce: a thundering herd of identical
// cold requests runs exactly one generation; everyone shares it.
func TestConcurrentColdRequestsCoalesce(t *testing.T) {
	countEmits.Store(0)
	svc := withScenario(countScenario{})
	req := NewGenerateRequest("api-count-test", WithWorkers(2))
	const herd = 8
	results := make(chan *GenerateResult, herd)
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		go func() {
			res, err := svc.Generate(context.Background(), req)
			results <- res
			errs <- err
		}()
	}
	hits := 0
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if res := <-results; res.CacheHit {
			hits++
		}
	}
	if got := countEmits.Load(); got != 50 {
		t.Errorf("herd of %d ran %d chunk emissions, want 50 (one generation)", herd, got)
	}
	if hits != herd-1 {
		t.Errorf("%d of %d requests shared the run, want %d", hits, herd, herd-1)
	}
}

// TestIncludeMatricesIsPerCall: the cells grids are derived per
// request, so requests differing only in include_matrices share one
// cache entry and each still gets exactly what it asked for.
func TestIncludeMatricesIsPerCall(t *testing.T) {
	svc := New()
	plain, err := svc.Generate(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cells != nil {
		t.Error("cold request without include_matrices carries cells")
	}
	withCells, err := svc.Generate(context.Background(), quick(WithMatrices()))
	if err != nil {
		t.Fatal(err)
	}
	if !withCells.CacheHit {
		t.Error("include_matrices variant missed the shared cache entry")
	}
	if len(withCells.Cells) != withCells.Hosts {
		t.Errorf("cache-hit with include_matrices has %d cell rows, want %d", len(withCells.Cells), withCells.Hosts)
	}
	for _, w := range withCells.Windows {
		if len(w.Cells) != withCells.Hosts {
			t.Fatalf("window %d missing cells on include_matrices hit", w.Index)
		}
	}
	plainAgain, err := svc.Generate(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if plainAgain.Cells != nil || (len(plainAgain.Windows) > 0 && plainAgain.Windows[0].Cells != nil) {
		t.Error("include_matrices leaked into the shared cache entry")
	}
}

// TestAnalyzeMatrixHonorsCancelledContext: even the synchronous
// matrix path reports cancellation instead of a result.
func TestAnalyzeMatrixHonorsCancelledContext(t *testing.T) {
	svc := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Analyze(ctx, AnalyzeRequest{Matrix: [][]int{{0, 1}, {1, 0}}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled analyze: err = %v, want context.Canceled", err)
	}
}

// TestGenerateEventBudget: the per-factor caps compose, so the
// product is bounded too.
func TestGenerateEventBudget(t *testing.T) {
	svc := New()
	req := GenerateRequest{Spec: "background", Duration: 1e6, Rate: 1e6, Scale: 1 << 20}
	if _, err := svc.Generate(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("budget-busting request: err = %v, want ErrInvalidRequest", err)
	}
}

// TestCancelSessionStopsCoalescedHerd: killing the one visible
// session aborts every coalesced waiter — nobody re-elects a leader
// and silently restarts work an operator just killed.
func TestCancelSessionStopsCoalescedHerd(t *testing.T) {
	svc, spec := slowService()
	const herd = 4
	errc := make(chan error, herd)
	for i := 0; i < herd; i++ {
		go func() {
			_, err := svc.Generate(context.Background(), NewGenerateRequest(spec, WithWorkers(2)))
			errc <- err
		}()
	}
	var sess []SessionInfo
	deadline := time.Now().Add(2 * time.Second)
	for len(sess) == 0 && time.Now().Before(deadline) {
		sess = svc.Sessions()
		time.Sleep(5 * time.Millisecond)
	}
	if len(sess) != 1 {
		t.Fatalf("coalesced herd shows %d sessions, want 1", len(sess))
	}
	if !svc.CancelSession(sess[0].ID) {
		t.Fatal("CancelSession did not find the herd's session")
	}
	for i := 0; i < herd; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrSessionCancelled) {
				t.Errorf("herd member %d returned %v, want ErrSessionCancelled", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("herd member did not return after CancelSession")
		}
	}
	if got := svc.Sessions(); len(got) != 0 {
		t.Errorf("sessions after herd cancel = %d, want 0 (no re-elected leader)", len(got))
	}
}

// TestModuleAndCampaignAreCached: the authoring paths share the
// result cache like Generate.
func TestModuleAndCampaignAreCached(t *testing.T) {
	svc := New()
	req := ModuleRequest{Spec: "ddos", Seed: 7}
	first, err := svc.Module(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := svc.CacheStats()
	second, err := svc.Module(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	after := svc.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Errorf("repeated module request did not hit the cache (hits %d → %d)", before.Hits, after.Hits)
	}
	if first != second {
		t.Error("cached module is not the shared instance")
	}

	creq := CampaignRequest{Spec: "attack", Seed: 7, Window: 10}
	if _, err := svc.Campaign(context.Background(), creq); err != nil {
		t.Fatal(err)
	}
	before = svc.CacheStats()
	if _, err := svc.Campaign(context.Background(), creq); err != nil {
		t.Fatal(err)
	}
	if after := svc.CacheStats(); after.Hits != before.Hits+1 {
		t.Errorf("repeated campaign request did not hit the cache")
	}
}

// TestAnalyzeRejectsNegativeAndOversizedMatrices: the posted-matrix
// path enforces the documented contract.
func TestAnalyzeRejectsNegativeAndOversizedMatrices(t *testing.T) {
	svc := New()
	if _, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: [][]int{{0, -5}, {2, 0}}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative cells: err = %v, want ErrInvalidRequest", err)
	}
	huge := make([][]int, MaxHosts+1)
	if _, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: huge}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("oversized matrix: err = %v, want ErrInvalidRequest", err)
	}
}

// TestTopHubIsFirstSupernode pins the window hub's one-pass pick to
// the head of the sorted supernode list on random matrices, including
// fan ties across indices and directions and matrices with no
// supernode, at several thresholds.
func TestTopHubIsFirstSupernode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		d := matrix.NewDense(n, n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			d.Set(rng.Intn(n), rng.Intn(n), 1+rng.Intn(5))
		}
		s := new(matrix.Summary).Summarize(d, nil)
		for _, minFan := range []int{0, 1, 2, 3, 5} {
			got, ok := topHub(s, minFan)
			hubs := s.Supernodes(minFan)
			if ok != (len(hubs) > 0) {
				t.Fatalf("trial %d minFan %d: found = %v, supernodes %v", trial, minFan, ok, hubs)
			}
			if ok && got != hubs[0] {
				t.Fatalf("trial %d minFan %d: top hub %+v, want %+v", trial, minFan, got, hubs[0])
			}
		}
	}
}
