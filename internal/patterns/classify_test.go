package patterns

import (
	"testing"

	"repro/internal/matrix"
)

// TestCatalogBuilds verifies every figure panel generates without
// error, on the standard 10×10 axis, with matching color overlay.
func TestCatalogBuilds(t *testing.T) {
	for _, e := range Catalog() {
		m, c, err := e.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", e.ID, err)
		}
		if m.Rows() != 10 || m.Cols() != 10 {
			t.Errorf("%s: matrix is %dx%d, want 10x10", e.ID, m.Rows(), m.Cols())
		}
		if c.Rows() != m.Rows() || c.Cols() != m.Cols() {
			t.Errorf("%s: color overlay %dx%d does not match matrix", e.ID, c.Rows(), c.Cols())
		}
		if m.NNZ() == 0 {
			t.Errorf("%s: pattern is empty", e.ID)
		}
		if m.Max() > 14 {
			t.Errorf("%s: max packet count %d exceeds display guidance", e.ID, m.Max())
		}
	}
}

// TestCatalogIDsUnique verifies catalog IDs and figures are unique.
func TestCatalogIDsUnique(t *testing.T) {
	ids := make(map[string]bool)
	figs := make(map[string]bool)
	for _, e := range Catalog() {
		if ids[e.ID] {
			t.Errorf("duplicate catalog ID %s", e.ID)
		}
		ids[e.ID] = true
		if figs[e.Figure] {
			t.Errorf("duplicate figure %s", e.Figure)
		}
		figs[e.Figure] = true
	}
	if len(ids) != 24 {
		t.Errorf("catalog has %d entries, want 24 (4+4+3+4+9)", len(ids))
	}
}

// TestClassifyGraphCatalog verifies the graph classifier identifies
// every Fig 10 panel as the shape it claims to be.
func TestClassifyGraphCatalog(t *testing.T) {
	want := map[string]GraphKind{
		"10a": GraphStar,
		"10b": GraphClique,
		"10c": GraphBipartite,
		"10d": GraphTree,
		"10e": GraphRing,
		"10f": GraphMesh,
		"10g": GraphTorus,
		"10h": GraphSelfLoop,
		"10i": GraphTriangle,
	}
	for _, e := range ByFamily(FamilyGraph) {
		m, _, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := ClassifyGraph(m); got != want[e.Figure] {
			t.Errorf("%s (%s): classified as %v, want %v", e.ID, e.Title, got, want[e.Figure])
		}
	}
}

// TestClassifyTopologyCatalog verifies the topology classifier on
// every Fig 6 panel.
func TestClassifyTopologyCatalog(t *testing.T) {
	want := map[string]TopologyKind{
		"6a": TopologyIsolatedLinks,
		"6b": TopologySingleLinks,
		"6c": TopologyInternalSupernode,
		"6d": TopologyExternalSupernode,
	}
	for _, e := range ByFamily(FamilyTopology) {
		m, _, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := ClassifyTopologyOf(m, StandardZones10); got != want[e.Figure] {
			t.Errorf("%s (%s): classified as %v, want %v", e.ID, e.Title, got, want[e.Figure])
		}
	}
}

// TestClassifyAttackCatalog verifies the attack-stage classifier
// scores every Fig 7 panel as its own stage with full confidence.
func TestClassifyAttackCatalog(t *testing.T) {
	for _, stage := range AttackStages {
		m, err := Attack(StandardZones10, stage, 2)
		if err != nil {
			t.Fatalf("%v: %v", stage, err)
		}
		got, conf := ClassifyAttackStageOf(m, StandardZones10)
		if got != stage {
			t.Errorf("stage %v classified as %v (confidence %.2f)", stage, got, conf)
		}
		if conf != 1.0 {
			t.Errorf("stage %v confidence %.2f, want 1.0", stage, conf)
		}
	}
}

// TestClassifyPostureCatalog verifies the SDD classifier on every
// Fig 8 panel.
func TestClassifyPostureCatalog(t *testing.T) {
	for _, p := range Postures {
		m, err := SDD(StandardZones10, p, 2)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, conf := ClassifyPosture(m, StandardZones10)
		if got != p {
			t.Errorf("posture %v classified as %v (confidence %.2f)", p, got, conf)
		}
		if conf != 1.0 {
			t.Errorf("posture %v confidence %.2f, want 1.0", p, conf)
		}
	}
}

// TestClassifyDDoSCatalog verifies the DDoS classifier on every
// Fig 9 panel.
func TestClassifyDDoSCatalog(t *testing.T) {
	roles, err := AssignDDoSRoles(StandardZones10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range DDoSComponents {
		m, err := DDoS(StandardZones10, c, 2)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got, conf := ClassifyDDoSOf(m, roles)
		if got != c {
			t.Errorf("component %v classified as %v (confidence %.2f)", c, got, conf)
		}
		if conf != 1.0 {
			t.Errorf("component %v confidence %.2f, want 1.0", c, conf)
		}
	}
}

// TestTriangleHasOneTriangle cross-checks Fig 10i against the
// linear-algebra triangle census.
func TestTriangleHasOneTriangle(t *testing.T) {
	m, err := Triangle(10, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := matrix.TriangleCount(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("triangle count = %d, want 1", n)
	}
}
