package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/patterns"
)

func TestStandardNetworkLayout(t *testing.T) {
	net := StandardNetwork()
	if net.Len() != 10 {
		t.Fatalf("len = %d", net.Len())
	}
	labels := net.Labels()
	for i, want := range patterns.StandardLabels10 {
		if labels[i] != want {
			t.Errorf("label %d = %q, want %q", i, labels[i], want)
		}
	}
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	if zones != patterns.StandardZones10 {
		t.Errorf("zones = %+v, want standard", zones)
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork([]Host{{Name: "A"}, {Name: "A"}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewNetwork([]Host{{Name: ""}}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestZonesRejectInterleavedRoles(t *testing.T) {
	net, err := NewNetwork([]Host{
		{Name: "ADV1", Role: RoleAdversary},
		{Name: "WS1", Role: RoleWorkstation},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Zones(); err == nil {
		t.Error("interleaved roles accepted")
	}
}

func TestByRoleAndIndex(t *testing.T) {
	net := StandardNetwork()
	ws := net.ByRole(RoleWorkstation)
	if len(ws) != 3 || ws[0] != "WS1" {
		t.Errorf("workstations = %v", ws)
	}
	i, ok := net.Index("SRV1")
	if !ok || i != 3 {
		t.Errorf("Index(SRV1) = %d,%v", i, ok)
	}
	if _, ok := net.Index("NOPE"); ok {
		t.Error("unknown host indexed")
	}
	if net.Host(4).Role != RoleExternal {
		t.Error("Host(4) role wrong")
	}
}

func TestRoleZoneMapping(t *testing.T) {
	if RoleWorkstation.Zone() != patterns.ZoneBlue ||
		RoleServer.Zone() != patterns.ZoneBlue ||
		RoleExternal.Zone() != patterns.ZoneGrey ||
		RoleAdversary.Zone() != patterns.ZoneRed {
		t.Error("role→zone mapping wrong")
	}
	if RoleServer.String() != "server" {
		t.Error("role names wrong")
	}
}

func TestTraceBasics(t *testing.T) {
	trace := Trace{
		{Time: 2, Src: "A", Dst: "B", Packets: 3},
		{Time: 1, Src: "B", Dst: "A", Packets: 1},
	}
	trace.Sort()
	if trace[0].Time != 1 {
		t.Error("Sort failed")
	}
	if trace.Duration() != 2 || trace.TotalPackets() != 4 {
		t.Error("Duration/TotalPackets wrong")
	}
	between := trace.Between(0, 1.5)
	if len(between) != 1 || between[0].Src != "B" {
		t.Errorf("Between = %v", between)
	}
}

func TestTraceAssocAndMatrix(t *testing.T) {
	net := StandardNetwork()
	trace := Trace{
		{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 2},
		{Time: 1, Src: "WS1", Dst: "SRV1", Packets: 3},
		{Time: 2, Src: "GHOST", Dst: "SRV1", Packets: 7},
	}
	a := trace.Assoc()
	if a.At("WS1", "SRV1") != 5 {
		t.Error("assoc aggregation wrong")
	}
	m, dropped := trace.Matrix(net)
	if m.At(0, 3) != 5 {
		t.Error("matrix aggregation wrong")
	}
	if dropped != 7 {
		t.Errorf("dropped = %d, want 7", dropped)
	}
}

func TestWindows(t *testing.T) {
	net := StandardNetwork()
	trace := Trace{
		{Time: 1, Src: "WS1", Dst: "SRV1", Packets: 1},
		{Time: 11, Src: "WS2", Dst: "SRV1", Packets: 2},
		{Time: 21, Src: "WS3", Dst: "SRV1", Packets: 3},
	}
	windows, err := trace.Windows(net, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 {
		t.Fatalf("windows = %d", len(windows))
	}
	for i, w := range windows {
		if w.Events != 1 || w.Matrix.Sum() != i+1 {
			t.Errorf("window %d: events=%d sum=%d", i, w.Events, w.Matrix.Sum())
		}
	}
	if _, err := trace.Windows(net, 0, 10); err == nil {
		t.Error("zero window accepted")
	}
}

func TestWindowsDefaultHorizon(t *testing.T) {
	net := StandardNetwork()
	trace := Trace{{Time: 15, Src: "WS1", Dst: "SRV1", Packets: 1}}
	windows, err := trace.Windows(net, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Errorf("default horizon windows = %d, want 2", len(windows))
	}
}

func TestBackgroundDeterministicAndBenign(t *testing.T) {
	net := StandardNetwork()
	p := Params{Duration: 20, Rate: 4}
	a, _, err := catalogTrace("background", net, rand.New(rand.NewSource(9)), p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := catalogTrace("background", net, rand.New(rand.NewSource(9)), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different events")
		}
	}
	// Background traffic never involves adversaries.
	for _, e := range a {
		for _, adv := range net.ByRole(RoleAdversary) {
			if e.Src == adv || e.Dst == adv {
				t.Fatalf("background event touches adversary: %+v", e)
			}
		}
	}
}

func TestScanShapesAsSupernode(t *testing.T) {
	net := StandardNetwork()
	trace, _, err := catalogTrace("scan", net, rand.New(rand.NewSource(3)), Params{Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	m, dropped := trace.Matrix(net)
	if dropped != 0 {
		t.Error("scan dropped packets")
	}
	zones, _ := net.Zones()
	kind := patterns.ClassifyTopologyOf(m, zones)
	if kind != patterns.TopologyExternalSupernode {
		t.Errorf("scan classified as %v, want external supernode", kind)
	}
}

func TestAttackScenarioPhasesClassify(t *testing.T) {
	net := StandardNetwork()
	zones, _ := net.Zones()
	trace, phases, err := catalogTrace("attack", net, rand.New(rand.NewSource(21)), Params{Duration: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 4 {
		t.Fatalf("phases = %d", len(phases))
	}
	// Each phase window must classify as its own stage with full
	// confidence (stages are zone-pure by construction).
	for _, p := range phases {
		window := trace.Between(p.Start, p.End)
		if len(window) == 0 {
			t.Fatalf("phase %v has no events", p.Label)
		}
		m, _ := window.Matrix(net)
		got, conf := patterns.ClassifyAttackStageOf(m, zones)
		if got.String() != p.Label {
			t.Errorf("phase %v classified as %v (%.2f)", p.Label, got, conf)
		}
		if conf != 1.0 {
			t.Errorf("phase %v confidence %.2f", p.Label, conf)
		}
	}
}

func TestDDoSScenarioPhasesClassify(t *testing.T) {
	net := StandardNetwork()
	zones, _ := net.Zones()
	roles, err := patterns.AssignDDoSRoles(zones)
	if err != nil {
		t.Fatal(err)
	}
	trace, phases, err := catalogTrace("ddos", net, rand.New(rand.NewSource(77)), Params{Duration: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phases {
		window := trace.Between(p.Start, p.End)
		m, _ := window.Matrix(net)
		got, conf := patterns.ClassifyDDoSOf(m, roles)
		if got.String() != p.Label || conf != 1.0 {
			t.Errorf("phase %v → %v (%.2f)", p.Label, got, conf)
		}
	}
	// The flood dominates traffic volume.
	floodWindow := trace.Between(phases[2].Start, phases[2].End)
	c2Window := trace.Between(phases[0].Start, phases[0].End)
	fm, _ := floodWindow.Matrix(net)
	cm, _ := c2Window.Matrix(net)
	if fm.Sum() <= cm.Sum() {
		t.Error("flood not heavier than C2 chatter")
	}
}

func TestScenariosRejectBadParams(t *testing.T) {
	// A network with too few adversaries cannot host the scenarios.
	small, err := NewNetwork([]Host{
		{Name: "WS1", Role: RoleWorkstation},
		{Name: "EXT1", Role: RoleExternal},
		{Name: "ADV1", Role: RoleAdversary},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := catalogTrace("attack", small, rand.New(rand.NewSource(1)), Params{Duration: 10}); err == nil {
		t.Error("undersized network accepted for attack")
	}
	if _, _, err := catalogTrace("ddos", small, rand.New(rand.NewSource(1)), Params{Duration: 10}); err == nil {
		t.Error("undersized network accepted for ddos")
	}
}

func TestEventsStayInDisplayableRange(t *testing.T) {
	// Scenario packet counts are lesson-friendly (small per event).
	net := StandardNetwork()
	trace, _, err := catalogTrace("ddos", net, rand.New(rand.NewSource(5)), Params{Duration: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range trace {
		if e.Packets < 1 || e.Packets > 14 {
			t.Fatalf("event packets %d outside display guidance", e.Packets)
		}
	}
}

// catalogTrace runs a catalog entry on one worker with its run seed
// drawn from rng, returning the trace and the entry's ground-truth
// schedule (nil when it publishes none).
func catalogTrace(name string, net *Network, rng *rand.Rand, p Params) (Trace, []Phase, error) {
	s, ok := LookupScenario(name)
	if !ok {
		return nil, nil, fmt.Errorf("no catalog entry %q", name)
	}
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, rng.Int63(), 1, p)
	if err != nil {
		return nil, nil, err
	}
	var phases []Phase
	if sched, ok := s.(Scheduler); ok {
		phases = sched.Schedule(p)
	}
	return trace, phases, nil
}
