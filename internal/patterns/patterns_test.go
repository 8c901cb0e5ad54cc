package patterns

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matrix"
)

func TestZonesOf(t *testing.T) {
	z := StandardZones10
	wants := map[int]Zone{0: ZoneBlue, 3: ZoneBlue, 4: ZoneGrey, 5: ZoneGrey, 6: ZoneRed, 9: ZoneRed}
	for i, want := range wants {
		if got := z.Of(i); got != want {
			t.Errorf("Of(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestZonesIndicesAndCount(t *testing.T) {
	z := StandardZones10
	if s, e := z.Indices(ZoneBlue); s != 0 || e != 4 {
		t.Errorf("blue = [%d,%d)", s, e)
	}
	if s, e := z.Indices(ZoneGrey); s != 4 || e != 6 {
		t.Errorf("grey = [%d,%d)", s, e)
	}
	if s, e := z.Indices(ZoneRed); s != 6 || e != 10 {
		t.Errorf("red = [%d,%d)", s, e)
	}
}

func TestZonesValid(t *testing.T) {
	good := Zones{N: 5, BlueEnd: 2, GreyEnd: 3}
	if !good.Valid() {
		t.Error("valid zones rejected")
	}
	for _, bad := range []Zones{
		{N: 0, BlueEnd: 0, GreyEnd: 0},
		{N: 5, BlueEnd: 3, GreyEnd: 2},
		{N: 5, BlueEnd: 2, GreyEnd: 9},
		{N: 5, BlueEnd: -1, GreyEnd: 2},
	} {
		if bad.Valid() {
			t.Errorf("invalid zones accepted: %+v", bad)
		}
	}
}

func TestColorMatrixMatchesPaperTemplate(t *testing.T) {
	c := StandardZones10.ColorMatrix()
	// Paper's color listing: blue rows 0–3 paint red in columns
	// 6–9; red rows 6–9 paint blue in columns 0–3; all else grey.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := 0
			switch {
			case i < 4 && j >= 6:
				want = 2
			case i >= 6 && j < 4:
				want = 1
			}
			if got := c.At(i, j); got != want {
				t.Fatalf("ColorMatrix(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestHighlightColors(t *testing.T) {
	m := matrix.NewSquare(3)
	m.Set(0, 1, 5)
	c := HighlightColors(m, 2)
	if c.At(0, 1) != 2 || c.At(1, 0) != 0 {
		t.Error("HighlightColors wrong")
	}
}

func TestZoneColors(t *testing.T) {
	m := matrix.NewSquare(10)
	m.Set(0, 1, 1) // blue→blue
	m.Set(0, 9, 1) // blue→red
	m.Set(4, 5, 1) // grey→grey
	c := StandardZones10.ZoneColors(m)
	if c.At(0, 1) != 1 || c.At(0, 9) != 2 || c.At(4, 5) != 0 {
		t.Errorf("ZoneColors: %d %d %d", c.At(0, 1), c.At(0, 9), c.At(4, 5))
	}
}

func TestGeneratorParameterValidation(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"star bad center", func() error { _, err := Star(5, 9); return err }},
		{"clique too big", func() error { _, err := Clique(4, 5); return err }},
		{"clique too small", func() error { _, err := Clique(4, 1); return err }},
		{"bipartite overflow", func() error { _, err := Bipartite(4, 3, 3); return err }},
		{"tree tiny", func() error { _, err := Tree(1); return err }},
		{"ring tiny", func() error { _, err := Ring(2); return err }},
		{"mesh overflow", func() error { _, err := Mesh(4, 3, 3); return err }},
		{"torus overflow", func() error { _, err := ToroidalMesh(4, 3, 3); return err }},
		{"selfloop zero", func() error { _, err := SelfLoops(4, 0); return err }},
		{"triangle dup", func() error { _, err := Triangle(5, 1, 1, 2); return err }},
		{"triangle range", func() error { _, err := Triangle(3, 0, 1, 7); return err }},
		{"isolated overflow", func() error { _, err := IsolatedLinks(4, 3, 1); return err }},
		{"isolated zero weight", func() error { _, err := IsolatedLinks(4, 1, 0); return err }},
		{"single overflow", func() error { _, err := SingleLinks(4, 3, 1); return err }},
		{"supernode bad hub", func() error { _, err := Supernode(4, 9, 0, 3, 1); return err }},
		{"supernode bad range", func() error { _, err := Supernode(4, 0, 3, 2, 1); return err }},
		{"supernode no peers", func() error { _, err := Supernode(4, 0, 0, 1, 1); return err }},
		{"attack bad stage", func() error { _, err := Attack(StandardZones10, AttackStage(9), 1); return err }},
		{"attack zero weight", func() error { _, err := Attack(StandardZones10, StagePlanning, 0); return err }},
		{"sdd bad posture", func() error { _, err := SDD(StandardZones10, Posture(9), 1); return err }},
		{"ddos bad component", func() error { _, err := DDoS(StandardZones10, DDoSComponent(9), 1); return err }},
	}
	for _, c := range cases {
		if c.call() == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestGraphGeneratorDegrees(t *testing.T) {
	star, _ := Star(10, 0)
	p := matrix.ProfileOf(star)
	if p.OutFan[0] != 9 || p.InFan[0] != 9 {
		t.Error("star hub fan wrong")
	}
	ring, _ := Ring(10)
	rp := matrix.ProfileOf(ring)
	for i, f := range rp.OutFan {
		if f != 2 {
			t.Errorf("ring vertex %d fan %d", i, f)
		}
	}
	clique, _ := Clique(10, 10)
	if clique.NNZ() != 90 {
		t.Errorf("K10 edges = %d, want 90", clique.NNZ())
	}
	tree, _ := Tree(10)
	// Undirected tree on 10 vertices: 9 edges stored twice.
	if tree.NNZ() != 18 {
		t.Errorf("tree NNZ = %d, want 18", tree.NNZ())
	}
	bip, _ := Bipartite(10, 5, 5)
	if bip.NNZ() != 50 {
		t.Errorf("K5,5 NNZ = %d, want 50", bip.NNZ())
	}
	loops, _ := SelfLoops(10, 6)
	if loops.Trace() != 6 || loops.NNZ() != 6 {
		t.Error("self loops wrong")
	}
}

func TestMeshTorusStructure(t *testing.T) {
	mesh, _ := Mesh(10, 2, 5)
	mp := matrix.ProfileOf(mesh)
	// 2×5 grid: 4 horizontal edges per row ×2 + 5 vertical = 13
	// undirected edges = 26 stored.
	if mesh.NNZ() != 26 {
		t.Errorf("mesh NNZ = %d, want 26", mesh.NNZ())
	}
	if !mp.Symmetric {
		t.Error("mesh not symmetric")
	}
	torus, _ := ToroidalMesh(10, 2, 5)
	// Torus adds column wraparound (2 more) but not row wrap
	// (length-2 dimension would duplicate): 15 undirected edges.
	if torus.NNZ() != 30 {
		t.Errorf("torus NNZ = %d, want 30", torus.NNZ())
	}
}

func TestAttackStagesConfinedToZones(t *testing.T) {
	wantFlows := map[AttackStage]map[[2]Zone]bool{
		StagePlanning:     {{ZoneRed, ZoneRed}: true},
		StageStaging:      {{ZoneRed, ZoneGrey}: true, {ZoneGrey, ZoneRed}: true},
		StageInfiltration: {{ZoneGrey, ZoneBlue}: true, {ZoneBlue, ZoneGrey}: true},
		StageLateral:      {{ZoneBlue, ZoneBlue}: true},
	}
	for stage, allowed := range wantFlows {
		m, err := Attack(StandardZones10, stage, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := new(Summary).Summarize(m, StandardZones10, nil)
		for src, row := range s.ZoneCells {
			for dst, count := range row {
				if flow := [2]Zone{Zone(src), Zone(dst)}; count > 0 && !allowed[flow] {
					t.Errorf("stage %v has out-of-zone flow %v→%v", stage, flow[0], flow[1])
				}
			}
		}
	}
}

func TestCampaignClassifiedAsDominantStage(t *testing.T) {
	campaign, err := AttackCampaign(StandardZones10, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, conf := ClassifyAttackStageOf(campaign, StandardZones10)
	if conf >= 1.0 || conf <= 0 {
		t.Errorf("campaign confidence = %f, want partial", conf)
	}
}

func TestDDoSRolesAssignment(t *testing.T) {
	roles, err := AssignDDoSRoles(StandardZones10)
	if err != nil {
		t.Fatal(err)
	}
	if len(roles.C2) != 2 || len(roles.Bots) != 4 {
		t.Errorf("roles = %+v", roles)
	}
	if roles.Victim != 3 {
		t.Errorf("victim = %d, want 3 (SRV1)", roles.Victim)
	}
}

func TestDDoSBotnetIdenticalWeights(t *testing.T) {
	m, err := DDoS(StandardZones10, DDoSBotnet, 2)
	if err != nil {
		t.Fatal(err)
	}
	// "identical communications between the C2 nodes and the botnet
	// clients": every non-zero cell has the same weight.
	weight := 0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				if weight == 0 {
					weight = v
				} else if v != weight {
					t.Fatalf("botnet weights differ: %d vs %d", weight, v)
				}
			}
		}
	}
}

func TestDDoSBackscatterIsAttackTranspose(t *testing.T) {
	attack, err := DDoS(StandardZones10, DDoSAttack, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DDoS(StandardZones10, DDoSBackscatter, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !attack.Transpose().Pattern().Equal(back.Pattern()) {
		t.Error("backscatter does not retrace the attack edges")
	}
}

func TestComposeAndNoise(t *testing.T) {
	a, _ := Attack(StandardZones10, StagePlanning, 1)
	b, _ := Attack(StandardZones10, StageLateral, 1)
	combined, err := a.AddMatrix(b)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	noisy, err := AddNoise(combined, rng, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.NNZ() != combined.NNZ()+10 {
		t.Errorf("noise added %d cells, want 10", noisy.NNZ()-combined.NNZ())
	}
	// Pattern cells must be untouched.
	for i := 0; i < combined.Rows(); i++ {
		for j := 0; j < combined.Cols(); j++ {
			if v := combined.At(i, j); v != 0 && noisy.At(i, j) != v {
				t.Errorf("noise altered pattern cell (%d,%d)", i, j)
			}
		}
	}
	if _, err := AddNoise(combined, nil, 1, 1); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestAddNoiseCapsAtEmptyCells(t *testing.T) {
	m := matrix.NewSquare(2)
	m.Set(0, 1, 1)
	rng := rand.New(rand.NewSource(1))
	// Only 1 empty off-diagonal cell remains (1,0).
	noisy, err := AddNoise(m, rng, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", noisy.NNZ())
	}
}

func TestClassifiersRobustOnRandomMatrices(t *testing.T) {
	roles, err := AssignDDoSRoles(StandardZones10)
	if err != nil {
		t.Fatal(err)
	}
	inRange := func(trial int, what string, conf float64) {
		t.Helper()
		if conf < 0 || conf > 1 {
			t.Fatalf("trial %d: %s confidence %f out of range", trial, what, conf)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		m := matrix.NewSquare(10)
		for k := 0; k < rng.Intn(30); k++ {
			m.Set(rng.Intn(10), rng.Intn(10), rng.Intn(5))
		}
		// None of these may panic, confidences stay in [0,1], and
		// the CSR form reads exactly like the dense one.
		ClassifyGraph(m)
		c := matrix.FromDense(m).ToCSR()
		if got, want := ClassifyTopologyOf(c, StandardZones10), ClassifyTopologyOf(m, StandardZones10); got != want {
			t.Fatalf("trial %d: topology CSR %v != Dense %v", trial, got, want)
		}
		stage, conf := ClassifyAttackStageOf(m, StandardZones10)
		inRange(trial, "attack", conf)
		if cs, cc := ClassifyAttackStageOf(c, StandardZones10); cs != stage || cc != conf {
			t.Fatalf("trial %d: attack CSR %v/%v != Dense %v/%v", trial, cs, cc, stage, conf)
		}
		_, conf = ClassifyPosture(m, StandardZones10)
		inRange(trial, "posture", conf)
		comp, conf := ClassifyDDoSOf(m, roles)
		inRange(trial, "ddos", conf)
		if cc, cconf := ClassifyDDoSOf(c, roles); cc != comp || cconf != conf {
			t.Fatalf("trial %d: ddos CSR %v/%v != Dense %v/%v", trial, cc, cconf, comp, conf)
		}
		b, conf := ClassifyBehaviorOf(m, StandardZones10)
		inRange(trial, "behavior", conf)
		if cb, cconf := ClassifyBehaviorOf(c, StandardZones10); cb != b || cconf != conf {
			t.Fatalf("trial %d: behavior CSR %v/%v != Dense %v/%v", trial, cb, cconf, b, conf)
		}
		mix := ClassifyMixtureOf(m, StandardZones10)
		for _, comp := range mix {
			inRange(trial, "mixture "+comp.Label, comp.Score)
		}
		if got := ClassifyMixtureOf(c, StandardZones10); !reflect.DeepEqual(got, mix) {
			t.Fatalf("trial %d: mixture CSR %v != Dense %v", trial, got, mix)
		}
	}
}

func TestClassifyGraphEmptyAndNonSquare(t *testing.T) {
	if got := ClassifyGraph(matrix.NewSquare(5)); got != GraphUnknown {
		t.Errorf("empty matrix classified as %v", got)
	}
	if got := ClassifyGraph(matrix.NewDense(2, 3)); got != GraphUnknown {
		t.Errorf("non-square classified as %v", got)
	}
}

func TestClassifyGraphScaleInvariance(t *testing.T) {
	// The classifier reads structure, not weights.
	for _, e := range ByFamily(FamilyGraph) {
		m, _, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		heavy := m.Clone()
		heavy.Scale(7)
		if got, want := ClassifyGraph(heavy), ClassifyGraph(m); got != want {
			t.Errorf("%s: scaling changed classification %v → %v", e.ID, want, got)
		}
	}
}

func TestClassifyGraphAtOtherSizes(t *testing.T) {
	cases := []struct {
		build func() (*matrix.Dense, error)
		want  GraphKind
	}{
		{func() (*matrix.Dense, error) { return Star(6, 2) }, GraphStar},
		{func() (*matrix.Dense, error) { return Ring(5) }, GraphRing},
		{func() (*matrix.Dense, error) { return Clique(8, 5) }, GraphClique},
		{func() (*matrix.Dense, error) { return Bipartite(8, 3, 3) }, GraphBipartite},
		{func() (*matrix.Dense, error) { return Tree(7) }, GraphTree},
		{func() (*matrix.Dense, error) { return Mesh(12, 3, 4) }, GraphMesh},
		{func() (*matrix.Dense, error) { return ToroidalMesh(12, 3, 4) }, GraphTorus},
		{func() (*matrix.Dense, error) { return SelfLoops(4, 2) }, GraphSelfLoop},
		{func() (*matrix.Dense, error) { return Triangle(5, 1, 3, 4) }, GraphTriangle},
	}
	for i, c := range cases {
		m, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := ClassifyGraph(m); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestTopologyClassifierRejectsAmbiguity(t *testing.T) {
	// A mixed matrix (one pair + one hub) is not a pure topology…
	m := matrix.NewSquare(10)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	for j := 4; j < 8; j++ {
		m.Set(2, j, 1)
	}
	if got := ClassifyTopologyOf(m, StandardZones10); got != TopologyInternalSupernode {
		// The hub dominates: vertex 2 is blue with fan 4.
		t.Errorf("mixed matrix = %v", got)
	}
	// …and an empty one is unknown.
	if got := ClassifyTopologyOf(matrix.NewSquare(10), StandardZones10); got != TopologyUnknown {
		t.Errorf("empty = %v", got)
	}
}

func TestCatalogLookupAndFamilies(t *testing.T) {
	if _, ok := Lookup("fig6a-isolated-links"); !ok {
		t.Error("known ID not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown ID found")
	}
	fams := Families()
	if len(fams) != 5 {
		t.Errorf("families = %v", fams)
	}
	titles := FamilyTitles(FamilySDD)
	if len(titles) != 3 {
		t.Errorf("SDD titles = %v", titles)
	}
}

func TestEnumStrings(t *testing.T) {
	if StagePlanning.String() != "planning" || AttackStage(9).String() == "" {
		t.Error("attack stage names")
	}
	if PostureDeterrence.String() != "deterrence" {
		t.Error("posture names")
	}
	if DDoSC2.String() != "command and control" {
		t.Error("ddos names")
	}
	if GraphTorus.String() != "toroidal mesh" || GraphKind(99).String() != "unknown" {
		t.Error("graph kind names")
	}
	if TopologyExternalSupernode.String() != "external supernode" {
		t.Error("topology names")
	}
	if ZoneBlue.String() != "blue" || Zone(9).String() == "" {
		t.Error("zone names")
	}
}
