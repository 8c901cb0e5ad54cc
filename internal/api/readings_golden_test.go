package api

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/patterns"
)

// readingsGolden pins every classifier reading the service serves —
// per-window attack stage, DDoS component and hub, the aggregate
// block, and the /v1/analyze supernode list — plus every exported
// classifier over the seeded random matrices, as both Dense and CSR.
// The file records the readings, not the wire bytes, so a change to
// how the readings are computed must leave every figure as it was.
const readingsGolden = "readings.golden"

// goldenCatalog is the eight-scenario catalog, named explicitly so a
// composite another test registers never joins the pinned set.
var goldenCatalog = []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"}

// fmtConf writes a confidence with the shortest exact representation.
func fmtConf(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fmtReading(r *Reading) string {
	if r == nil {
		return "-"
	}
	return r.Label + "/" + fmtConf(r.Confidence)
}

func fmtHub(h *Hub) string {
	if h == nil {
		return "-"
	}
	return fmt.Sprintf("%s:%s:%d:%d", h.Host, h.Direction, h.Fan, h.Packets)
}

func fmtAggregate(b *strings.Builder, a Aggregate) {
	p := a.Profile
	fmt.Fprintf(b, "  profile n=%d nnz=%d density=%s packets=%d max=%d fan=%d/%d diag=%d sym=%t active=%d/%d recip=%d\n",
		p.N, p.NNZ, fmtConf(p.DensityPct), p.Packets, p.MaxCell, p.MaxOutFan, p.MaxInFan,
		p.DiagNNZ, p.Symmetric, p.Sources, p.Dests, p.Reciprocal)
	fmt.Fprintf(b, "  behavior=%s topology=%s attack=%s\n", fmtReading(a.Behavior), a.Topology, fmtReading(&a.Attack))
	b.WriteString("  mixture")
	for _, r := range a.Mixture {
		b.WriteString(" " + fmtReading(&r))
	}
	b.WriteString("\n")
}

func fmtHubs(b *strings.Builder, hubs []Hub) {
	b.WriteString("  supernodes")
	for _, h := range hubs {
		b.WriteString(" " + fmtHub(&h))
	}
	b.WriteString("\n")
}

// servedReadings runs one generate and the matching spec-path
// analyze, writing every reading both serve.
func servedReadings(t *testing.T, b *strings.Builder, svc *Service, req GenerateRequest) {
	t.Helper()
	ctx := context.Background()
	res, err := svc.Generate(ctx, req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	fmt.Fprintf(b, "generate %s hosts=%d seed=%d duration=%s scale=%d window=%s\n",
		req.Spec, req.Hosts, req.Seed, fmtConf(req.Duration), req.Scale, fmtConf(req.Window))
	for _, w := range res.Windows {
		fmt.Fprintf(b, "  window %d packets=%d nnz=%d stage=%s ddos=%s hub=%s\n",
			w.Index, w.Packets, w.NNZ, fmtReading(w.AttackStage), fmtReading(w.DDoS), fmtHub(w.Hub))
	}
	fmtAggregate(b, res.Aggregate)
	ares, err := svc.Analyze(ctx, AnalyzeRequest{
		Spec: req.Spec, Hosts: req.Hosts, Seed: req.Seed,
		Duration: req.Duration, Rate: req.Rate, Scale: req.Scale,
	})
	if err != nil {
		t.Fatalf("analyze %+v: %v", req, err)
	}
	fmtHubs(b, ares.Supernodes)
}

// classifierReadings writes every exported classifier's reading of m.
func classifierReadings(b *strings.Builder, kind string, m matrix.Matrix, dense *matrix.Dense, roles patterns.DDoSRoles) {
	z := patterns.StandardZones10
	p := matrix.ProfileOf(m)
	fmt.Fprintf(b, "  %s profile %+v\n", kind, p)
	fmt.Fprintf(b, "  %s supernodes", kind)
	for _, minFan := range []int{1, patterns.SupernodeFanThreshold} {
		for _, h := range matrix.SupernodesOf(m, minFan) {
			fmt.Fprintf(b, " %d:%d:%s:%d:%d", minFan, h.Index, h.Direction, h.Fan, h.Packets)
		}
	}
	b.WriteString("\n")
	stage, sconf := patterns.ClassifyAttackStageOf(m, z)
	comp, dconf := patterns.ClassifyDDoSOf(m, roles)
	beh, bconf := patterns.ClassifyBehaviorOf(m, z)
	posture, pconf := patterns.ClassifyPosture(dense, z)
	fmt.Fprintf(b, "  %s stage=%s/%s ddos=%s/%s behavior=%s/%s topology=%s posture=%s/%s mixture",
		kind, stage, fmtConf(sconf), comp, fmtConf(dconf), beh, fmtConf(bconf),
		patterns.ClassifyTopologyOf(m, z), posture, fmtConf(pconf))
	for _, c := range patterns.ClassifyMixtureOf(m, z) {
		b.WriteString(" " + c.Label + "/" + fmtConf(c.Score))
	}
	b.WriteString("\n")
}

// goldenReadings renders the whole pinned set.
func goldenReadings(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	svc := New(WithCacheCapacity(0))
	for _, spec := range goldenCatalog {
		for _, hosts := range []int{10, 48, 200} {
			servedReadings(t, &b, svc, NewGenerateRequest(spec, WithSeed(1), WithHosts(hosts), WithWindow(10)))
		}
	}
	// The benchmark's cold request, at a fixed seed.
	servedReadings(t, &b, svc, NewGenerateRequest("overlay(background, sequence(scan, ddos))",
		WithSeed(1), WithHosts(200), WithParams(60, 0, 8), WithWindow(10)))

	// The random matrices of TestClassifiersRobustOnRandomMatrices,
	// drawn with the same generator and seed.
	roles, err := patterns.AssignDDoSRoles(patterns.StandardZones10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		m := matrix.NewSquare(10)
		for k := 0; k < rng.Intn(30); k++ {
			m.Set(rng.Intn(10), rng.Intn(10), rng.Intn(5))
		}
		fmt.Fprintf(&b, "random %d\n", trial)
		classifierReadings(&b, "dense", m, m, roles)
		classifierReadings(&b, "csr", matrix.FromDense(m).ToCSR(), m, roles)
		ares, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: m.ToRows()})
		if err != nil {
			t.Fatalf("analyze random %d: %v", trial, err)
		}
		fmtAggregate(&b, ares.Aggregate)
		fmtHubs(&b, ares.Supernodes)
	}
	return b.String()
}

// TestReadingsGolden pins every served and exported classifier
// reading to testdata/readings.golden, confidences to the last bit.
func TestReadingsGolden(t *testing.T) {
	got := goldenReadings(t)
	want, err := os.ReadFile(filepath.Join("testdata", readingsGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("readings differ from testdata/%s at line %d:\n got: %s\nwant: %s", readingsGolden, i+1, g, w)
		}
	}
}
