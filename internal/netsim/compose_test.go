package netsim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/patterns"
)

// composeParams keeps the property-test runs small enough to sweep
// the whole catalog pairwise.
var composeParams = Params{Duration: 8, Rate: 6}

// generateCSRAt is a test helper: the composed scenario's CSR at a
// given worker count, fatal on error.
func generateCSRAt(t *testing.T, s Scenario, net *Network, workers int) *matrix.CSR {
	t.Helper()
	csr, _, err := GenerateCSRArena(context.Background(), nil, s, net, 42, workers, composeParams)
	if err != nil {
		t.Fatalf("%s on %d workers: %v", s.Name(), workers, err)
	}
	return csr
}

// TestComposedCrossWorkerDeterminism is the property test the
// composition algebra must uphold: Overlay and Sequence of ANY two
// catalog entries yield byte-identical CSR matrices at workers ∈
// {1, 4, 16} — composed scenarios shard deterministically exactly
// like primitives.
func TestComposedCrossWorkerDeterminism(t *testing.T) {
	net := StandardNetwork()
	combine := map[string]func(a, b Scenario) Scenario{
		"overlay":  func(a, b Scenario) Scenario { return Overlay(a, b) },
		"sequence": func(a, b Scenario) Scenario { return Sequence(a, b) },
	}
	for _, a := range Scenarios() {
		for _, b := range Scenarios() {
			for kind, f := range combine {
				composed := f(a, b)
				t.Run(fmt.Sprintf("%s/%s+%s", kind, a.Name(), b.Name()), func(t *testing.T) {
					base := generateCSRAt(t, composed, net, 1)
					for _, workers := range []int{4, 16} {
						got := generateCSRAt(t, composed, net, workers)
						if !reflect.DeepEqual(got, base) {
							t.Errorf("workers=%d: CSR differs from 1-worker result", workers)
						}
					}
				})
			}
		}
	}
}

// TestOverlayLayersComponents: the overlay's first component keeps
// its standalone chunk seeds, so its exact traffic is a sub-matrix of
// the overlay; every component's volume is present.
func TestOverlayLayersComponents(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	background, _ := LookupScenario("background")
	composed := Overlay(background, scan)

	overlayCSR, stats, err := GenerateCSRArena(context.Background(), nil, composed, net, 42, 1, composeParams)
	if err != nil {
		t.Fatal(err)
	}
	bgCSR, bgStats, err := GenerateCSRArena(context.Background(), nil, background, net, 42, 1, composeParams)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events <= bgStats.Events {
		t.Errorf("overlay events %d not larger than background alone %d", stats.Events, bgStats.Events)
	}
	// Component 0 occupies the leading chunk indices, so its chunk
	// seeds — and therefore its exact cells — are those of a
	// standalone run: overlay[i][j] ≥ background[i][j] everywhere.
	overlay, bg := overlayCSR.ToDense(), bgCSR.ToDense()
	for i := 0; i < net.Len(); i++ {
		for j := 0; j < net.Len(); j++ {
			if overlay.At(i, j) < bg.At(i, j) {
				t.Fatalf("overlay cell (%d,%d)=%d below background %d", i, j, overlay.At(i, j), bg.At(i, j))
			}
		}
	}
}

// TestSequenceConfinesStepsToSlots: each step's events land inside
// its slot (modulo the sub-second reply jitter scripts emit).
func TestSequenceConfinesStepsToSlots(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	ddos, _ := LookupScenario("ddos")
	composed := SequenceSteps(
		SeqStep{Scenario: scan, Duration: 10},
		SeqStep{Scenario: ddos},
	)
	p := Params{Duration: 40}
	trace, err := GenerateTraceArena(context.Background(), nil, composed, net, 1, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty composed trace")
	}
	const jitter = 0.05 // scripts emit replies at t+0.01/0.02
	sawEarly, sawLate := false, false
	for _, e := range trace {
		if e.Time < 0 || e.Time > 40+jitter {
			t.Fatalf("event at %gs outside the composed duration", e.Time)
		}
		if e.Time < 10 {
			sawEarly = true
			// The first ten seconds belong to the scan: red sources only.
			if i, ok := net.Index(e.Src); !ok || net.Host(i).Role != RoleAdversary {
				t.Fatalf("non-scan event %+v inside the scan slot", e)
			}
		}
		if e.Time > 10+jitter {
			sawLate = true
		}
	}
	if !sawEarly || !sawLate {
		t.Fatalf("sequence did not populate both slots (early=%v late=%v)", sawEarly, sawLate)
	}

	// The merged ground-truth schedule: the scan slot, then the DDoS
	// component phases offset into [10,40).
	sched := composed.(Scheduler).Schedule(p)
	if len(sched) != 5 {
		t.Fatalf("schedule has %d phases, want 5: %+v", len(sched), sched)
	}
	if sched[0].Label != "scan" || sched[0].Start != 0 || sched[0].End != 10 {
		t.Errorf("first phase = %+v, want scan [0,10)", sched[0])
	}
	if sched[1].Start != 10 || sched[4].End != 40 {
		t.Errorf("ddos phases misaligned: %+v", sched[1:])
	}
}

// TestSequenceRejectsOversubscribedSlots: timed steps that consume
// the whole duration leave a later step no time; generation fails
// loudly instead of silently teaching a phantom layer.
func TestSequenceRejectsOversubscribedSlots(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	ddos, _ := LookupScenario("ddos")
	composed := SequenceSteps(
		SeqStep{Scenario: scan, Duration: 50},
		SeqStep{Scenario: ddos},
	)
	_, err := GenerateTraceArena(context.Background(), nil, composed, net, 1, 1, Params{Duration: 40})
	if err == nil {
		t.Fatal("oversubscribed sequence generated silently")
	}
	if !strings.Contains(err.Error(), "ddos") || !strings.Contains(err.Error(), "no time") {
		t.Errorf("unhelpful error %q", err)
	}
	if _, _, err := GenerateCSRArena(context.Background(), nil, composed, net, 1, 4, Params{Duration: 40}); err == nil {
		t.Error("oversubscribed sequence generated silently on the sparse path")
	}
}

// TestDilateStretchesTime: dilation preserves the event set but
// multiplies timestamps, halving temporal density at factor 2.
func TestDilateStretchesTime(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	p := Params{Duration: 20}
	inner, err := GenerateTraceArena(context.Background(), nil, scan, net, 3, 1, Params{Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	dilated, err := GenerateTraceArena(context.Background(), nil, Dilate(scan, 2), net, 3, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(dilated) != len(inner) {
		t.Fatalf("dilation changed event count %d -> %d", len(inner), len(dilated))
	}
	for k := range dilated {
		if dilated[k].Time != inner[k].Time*2 {
			t.Fatalf("event %d at %gs, want %gs", k, dilated[k].Time, inner[k].Time*2)
		}
		if dilated[k].Src != inner[k].Src || dilated[k].Dst != inner[k].Dst || dilated[k].Packets != inner[k].Packets {
			t.Fatalf("dilation changed event %d payload", k)
		}
	}
}

// TestAmplifyEqualsScale: amplify(s, n) is exactly Params.Scale
// multiplied by n — identical chunk seeds, identical matrix.
func TestAmplifyEqualsScale(t *testing.T) {
	net := StandardNetwork()
	ddos, _ := LookupScenario("ddos")
	amplified, _, err := GenerateCSRArena(context.Background(), nil, Amplify(ddos, 3), net, 9, 2, Params{Duration: 12})
	if err != nil {
		t.Fatal(err)
	}
	scaled, _, err := GenerateCSRArena(context.Background(), nil, ddos, net, 9, 2, Params{Duration: 12, Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !amplified.ToDense().Equal(scaled.ToDense()) {
		t.Error("Amplify(ddos,3) differs from Scale=3")
	}
}

// TestRelabelMatchesPermutationKernel pins the algebraic identity the
// Relabel combinator rests on: relabeling hosts at the event level
// equals the parallel symmetric permutation of the original matrix.
func TestRelabelMatchesPermutationKernel(t *testing.T) {
	net := StandardNetwork()
	mapping := map[string]string{
		"WS1": "WS3", "WS3": "WS1", // swap two workstations
		"ADV1": "ADV4", "ADV4": "ADV1", // and two adversaries
	}
	for _, name := range []string{"scan", "ddos", "worm"} {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		base, _, err := GenerateCSRArena(context.Background(), nil, s, net, 21, 4, composeParams)
		if err != nil {
			t.Fatal(err)
		}
		relabeled, _, err := GenerateCSRArena(context.Background(), nil, Relabel(s, mapping), net, 21, 4, composeParams)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := PermutationOf(net, mapping)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.PermuteCSR(base, perm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(relabeled, want) {
			t.Errorf("%s: Relabel matrix differs from PermuteCSR of the original", name)
		}
	}
}

// TestRelabelToForeignHostDrops: mapping a host off the axis counts
// its packets as dropped, like any foreign name.
func TestRelabelToForeignHostDrops(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	_, stats, err := GenerateCSRArena(context.Background(), nil, Relabel(scan, map[string]string{"ADV1": "NOWHERE"}), net, 2, 1, composeParams)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Error("relabeling the scanner off the axis dropped nothing")
	}
}

// TestPermutationOfRejectsBadMappings covers the bijection checks.
func TestPermutationOfRejectsBadMappings(t *testing.T) {
	net := StandardNetwork()
	for name, mapping := range map[string]map[string]string{
		"unknown source": {"NOPE": "WS1"},
		"unknown target": {"WS1": "NOPE"},
		"collision":      {"WS1": "WS2"}, // WS2 also keeps itself
	} {
		if _, err := PermutationOf(net, mapping); err == nil {
			t.Errorf("%s mapping accepted", name)
		}
	}
	if _, err := PermutationOf(nil, nil); err == nil {
		t.Error("nil network accepted")
	}
}

// TestTimedPinsDuration: a timed component ignores the outer duration.
func TestTimedPinsDuration(t *testing.T) {
	net := StandardNetwork()
	scan, _ := LookupScenario("scan")
	timed, err := GenerateTraceArena(context.Background(), nil, Timed(scan, 10), net, 4, 1, Params{Duration: 40})
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateTraceArena(context.Background(), nil, scan, net, 4, 1, Params{Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(timed, want) {
		t.Error("Timed(scan,10) in a 40s run differs from scan at 10s")
	}
}

// TestOverlayScheduleMerges: overlaying two scheduled scenarios
// yields one merged, start-sorted timeline.
func TestOverlayScheduleMerges(t *testing.T) {
	attack, _ := LookupScenario("attack")
	ddos, _ := LookupScenario("ddos")
	sched := Overlay(attack, ddos).(Scheduler).Schedule(Params{Duration: 40})
	if len(sched) != 8 {
		t.Fatalf("merged schedule has %d phases, want 8", len(sched))
	}
	for k := 1; k < len(sched); k++ {
		if sched[k].Start < sched[k-1].Start {
			t.Fatalf("schedule out of order at %d: %+v", k, sched)
		}
	}
}

// TestLeavesFlattens: nested composition flattens to its primitives.
func TestLeavesFlattens(t *testing.T) {
	background, _ := LookupScenario("background")
	scan, _ := LookupScenario("scan")
	ddos, _ := LookupScenario("ddos")
	composed := Overlay(background, Sequence(scan, Amplify(ddos, 2)))
	var names []string
	for _, leaf := range Leaves(composed) {
		names = append(names, leaf.Name())
	}
	want := []string{"background", "scan", "ddos"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Leaves = %v, want %v", names, want)
	}
}

// TestMixtureIdentifiesComposedShapes is the analysis half of the
// acceptance criterion: the mixture classifier, fed the sparse CSR of
// the composed run, reports each component shape of
// overlay(background, sequence(scan, ddos)) — and still reads pure
// scenarios as themselves.
func TestMixtureIdentifiesComposedShapes(t *testing.T) {
	net := StandardNetwork()
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec("overlay(background, sequence(scan, ddos))")
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := GenerateCSRArena(context.Background(), nil, s, net, 42, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	mixture := patterns.ClassifyMixtureOf(csr, zones)
	found := map[string]bool{}
	for _, c := range mixture {
		found[c.Label] = true
	}
	for _, want := range []string{"background", "scan", "ddos"} {
		if !found[want] {
			t.Errorf("mixture %v missing component %q", mixture, want)
		}
	}
	if len(mixture) == 0 || mixture[0].Label != "background" {
		t.Errorf("dominant component = %v, want background (it carries the volume)", mixture)
	}

	// Pure catalog entries whose name is in the mixture vocabulary
	// must classify as themselves, dominant.
	for _, name := range []string{"background", "scan", "ddos", "worm", "exfil", "flashcrowd", "beacon"} {
		pure, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		csr, _, err := GenerateCSRArena(context.Background(), nil, pure, net, 42, 0, Params{})
		if err != nil {
			t.Fatal(err)
		}
		got := patterns.ClassifyMixtureOf(csr, zones)
		if len(got) == 0 || got[0].Label != name {
			t.Errorf("pure %s classified as %v", name, got)
		}
	}
}

// TestPlanRunRejectsNonFiniteParams: NaN/Inf parameter fields fail
// with a clear error instead of letting math.Ceil(NaN) produce a
// bogus chunk count.
func TestPlanRunRejectsNonFiniteParams(t *testing.T) {
	net := StandardNetwork()
	s, _ := LookupScenario("background")
	nan := math.NaN()
	for name, p := range map[string]Params{
		"NaN duration":  {Duration: nan, Rate: 4},
		"+Inf duration": {Duration: math.Inf(1), Rate: 4},
		"-Inf duration": {Duration: math.Inf(-1), Rate: 4},
		"NaN rate":      {Duration: 10, Rate: nan},
		"Inf rate":      {Duration: 10, Rate: math.Inf(1)},
	} {
		if _, err := GenerateTraceArena(context.Background(), nil, s, net, 1, 1, p); err == nil {
			t.Errorf("GenerateTraceArena accepted %s", name)
		} else if !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: unhelpful error %q", name, err)
		}
		if _, _, err := GenerateCSRArena(context.Background(), nil, s, net, 1, 1, p); err == nil {
			t.Errorf("GenerateCSRArena accepted %s", name)
		}
	}
}

// TestComposedNamesAreStable pins the display-name grammar composed
// scenarios print in catalog listings and module titles.
func TestComposedNamesAreStable(t *testing.T) {
	background, _ := LookupScenario("background")
	scan, _ := LookupScenario("scan")
	ddos, _ := LookupScenario("ddos")
	for _, tc := range []struct {
		s    Scenario
		want string
	}{
		{Overlay(background, scan), "overlay(background,scan)"},
		{SequenceSteps(SeqStep{Scenario: scan, Duration: 10}, SeqStep{Scenario: ddos}), "sequence(scan@10s,ddos)"},
		{Dilate(scan, 2.5), "dilate(scan,2.5)"},
		{Amplify(ddos, 4), "amplify(ddos,4)"},
		{Relabel(scan, map[string]string{"WS1": "WS2", "ADV1": "ADV2"}), "relabel(scan,ADV1=ADV2,WS1=WS2)"},
		{Timed(scan, 10), "scan@10s"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
