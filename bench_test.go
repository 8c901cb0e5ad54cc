// Benchmark harness: one benchmark per paper table and figure
// (regenerating the artifact end to end), plus the ablation benches
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/game"
	"repro/internal/gdscript"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/render"
	"repro/internal/term"
	"repro/internal/voxel"
)

func init() {
	// Benches measure content generation, not escape-code emission.
	term.SetEnabled(false)
}

// benchArtifact runs one figure's full regeneration per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	f, ok := figures.Lookup(id)
	if !ok {
		b.Fatalf("unknown artifact %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arts, _, err := f.Generate()
		if err != nil {
			b.Fatal(err)
		}
		if len(arts) == 0 {
			b.Fatal("no artifacts")
		}
	}
}

// ——— Tables I and II ———

func BenchmarkTableI(b *testing.B)  { benchArtifact(b, "T1") }
func BenchmarkTableII(b *testing.B) { benchArtifact(b, "T2") }

// ——— Figures 1–10 ———

func BenchmarkFigure1_HelloWorld(b *testing.B)   { benchArtifact(b, "F1") }
func BenchmarkFigure2_SceneTree(b *testing.B)    { benchArtifact(b, "F2") }
func BenchmarkFigure3_Inspector(b *testing.B)    { benchArtifact(b, "F3") }
func BenchmarkFigure4_AxisNodes(b *testing.B)    { benchArtifact(b, "F4") }
func BenchmarkFigure5_Training(b *testing.B)     { benchArtifact(b, "F5") }
func BenchmarkFigure6_Topologies(b *testing.B)   { benchArtifact(b, "F6") }
func BenchmarkFigure7_Attack(b *testing.B)       { benchArtifact(b, "F7") }
func BenchmarkFigure8_SDD(b *testing.B)          { benchArtifact(b, "F8") }
func BenchmarkFigure9_DDoS(b *testing.B)         { benchArtifact(b, "F9") }
func BenchmarkFigure10_GraphTheory(b *testing.B) { benchArtifact(b, "F10") }

// ——— Game-loop benches ———

// BenchmarkTrainingPlaythrough plays the training level end to end:
// scene build, controller _ready, fill, question, score.
func BenchmarkTrainingPlaythrough(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := game.New(game.TrainingLesson(), "bench", rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		g.Update(game.ActionFillAll)
		for g.Phase() == game.PhasePlaying {
			g.Update(game.ActionNext)
		}
		if q, ok := g.Question(); ok {
			g.Update([]game.Action{game.ActionAnswer1, game.ActionAnswer2, game.ActionAnswer3}[q.CorrectOption])
		}
		g.Update(game.ActionNext)
		if !g.Done() {
			b.Fatal("lesson not done")
		}
	}
}

// BenchmarkCurriculumPlaythrough plays all 25 built-in modules.
func BenchmarkCurriculumPlaythrough(b *testing.B) {
	lesson, err := modules.Curriculum()
	if err != nil {
		b.Fatal(err)
	}
	answers := []game.Action{game.ActionAnswer1, game.ActionAnswer2, game.ActionAnswer3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := game.New(lesson, "bench", rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		for !g.Done() {
			switch g.Phase() {
			case game.PhasePlaying:
				g.Update(game.ActionFillAll)
				for g.Phase() == game.PhasePlaying {
					g.Update(game.ActionNext)
				}
			case game.PhaseQuestion:
				q, _ := g.Question()
				g.Update(answers[q.CorrectOption])
			case game.PhaseModuleDone:
				g.Update(game.ActionNext)
			}
		}
	}
}

// BenchmarkRender2D and BenchmarkRender3D measure the two in-game
// views on the 10×10 template.
func BenchmarkRender2D(b *testing.B) {
	m := core.MustTemplate(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := game.RenderStatic(m, false, 0, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRender3D(b *testing.B) {
	m := core.MustTemplate(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := game.RenderStatic(m, true, 1, true); err != nil {
			b.Fatal(err)
		}
	}
}

// ——— Ablation: lenient vs strict JSON decoding ———

func BenchmarkAblationDecode(b *testing.B) {
	tpl := core.MustTemplate(10)
	strictJSON, err := core.EncodeModule(tpl)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Lenient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ParseModule(strictJSON); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StrictBaseline", func(b *testing.B) {
		// encoding/json without the normalization pass: the cost
		// floor.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m core.Module
			if err := json.NewDecoder(bytes.NewReader(strictJSON)).Decode(&m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ——— Ablation: naive vs greedy voxel meshing ———

func BenchmarkAblationMeshing(b *testing.B) {
	scene, err := render.ComposeWarehouse(mustMatrix(core.MustTemplate(10)), nil, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Naive", func(b *testing.B) {
		b.ReportAllocs()
		quads := 0
		for i := 0; i < b.N; i++ {
			quads = len(voxel.NaiveMesh(scene).Quads)
		}
		b.ReportMetric(float64(quads), "quads")
	})
	b.Run("Greedy", func(b *testing.B) {
		b.ReportAllocs()
		quads := 0
		for i := 0; i < b.N; i++ {
			quads = len(voxel.GreedyMesh(scene).Quads)
		}
		b.ReportMetric(float64(quads), "quads")
	})
}

// ——— Ablation: stylized Iso3D vs voxel-exact splatting ———

func BenchmarkAblationRenderer(b *testing.B) {
	tpl := core.MustTemplate(10)
	m := mustMatrix(tpl)
	colors := mustColors(tpl)
	b.Run("StylizedIso3D", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := render.Iso3D(m, render.Iso3DOptions{Colors: colors, ShowColors: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VoxelSplat", func(b *testing.B) {
		scene, err := render.ComposeWarehouse(m, colors, nil, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			render.VoxelIso(scene, 0)
		}
	})
}

// ——— Ablation: dense vs sparse aggregation ———

func BenchmarkAblationAggregation(b *testing.B) {
	for _, hosts := range []int{10, 100, 1000} {
		events := hosts * 50
		rng := rand.New(rand.NewSource(7))
		type ev struct{ src, dst, pkts int }
		stream := make([]ev, events)
		for i := range stream {
			stream[i] = ev{rng.Intn(hosts), rng.Intn(hosts), 1 + rng.Intn(3)}
		}
		b.Run(fmt.Sprintf("Dense/hosts=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := matrix.NewSquare(hosts)
				for _, e := range stream {
					m.Add(e.src, e.dst, e.pkts)
				}
				_ = m.Sum()
			}
		})
		b.Run(fmt.Sprintf("COO-CSR/hosts=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := matrix.NewCOO(hosts, hosts)
				for _, e := range stream {
					c.Add(e.src, e.dst, e.pkts)
				}
				_ = c.ToCSR().Sum()
			}
		})
	}
}

// ——— Sparse end-to-end analysis: CSR vs Dense at scale ———

// BenchmarkSparseAnalysis measures ProfileOf + ClassifyBehaviorOf on the
// same scenario-generated traffic matrix through both
// representations at 1k/10k/50k hosts. The Dense path scans all n²
// cells; the CSR path visits stored entries through the
// matrix.Matrix accessor. The 50k Dense leg is omitted: the dense
// matrix alone would be 20 GB, which is exactly the point of the
// sparse path.
func BenchmarkSparseAnalysis(b *testing.B) {
	s, ok := netsim.LookupScenario("flashcrowd")
	if !ok {
		b.Fatal("flashcrowd scenario missing")
	}
	for _, hosts := range []int{1000, 10000, 50000} {
		net := netsim.ScaledNetwork(hosts)
		zones, err := net.Zones()
		if err != nil {
			b.Fatal(err)
		}
		csr, _, err := netsim.GenerateCSRArena(context.Background(), nil, s, net, 7, 0, netsim.Params{Duration: 8})
		if err != nil {
			b.Fatal(err)
		}
		if hosts <= 10000 {
			b.Run(fmt.Sprintf("Dense/hosts=%d", hosts), func(b *testing.B) {
				d := csr.ToDense()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := matrix.ProfileOf(d)
					beh, _ := patterns.ClassifyBehaviorOf(d, zones)
					if p.N < 0 || beh == patterns.BehaviorUnknown {
						b.Fatal("dense analysis failed")
					}
				}
			})
		}
		b.Run(fmt.Sprintf("CSR/hosts=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := matrix.ProfileOf(csr)
				beh, _ := patterns.ClassifyBehaviorOf(csr, zones)
				if p.N < 0 || beh == patterns.BehaviorUnknown {
					b.Fatal("sparse analysis failed")
				}
			}
		})
	}
}

// ——— Ablation: the paper's GDScript vs the native Go port ———

func BenchmarkAblationController(b *testing.B) {
	b.Run("GDScript", func(b *testing.B) {
		root, err := game.BuildLevelScene(game.TrainingModule())
		if err != nil {
			b.Fatal(err)
		}
		controller := root.MustGetNode(game.NodeController)
		controller.SetBehavior(nil)
		beh, err := gdscript.AttachScript(controller, gdscript.PaperControllerScript)
		if err != nil {
			b.Fatal(err)
		}
		engine.NewSceneTree(root).Start()
		if beh.Err != nil {
			b.Fatal(beh.Err)
		}
		beh.Instance.MaxSteps = 1 << 40
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := beh.Instance.Call("change_pallet_color"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Keep print output from growing unbounded across runs.
		beh.Instance.Stdout.Reset()
	})
	b.Run("GoPort", func(b *testing.B) {
		root, err := game.BuildLevelScene(game.TrainingModule())
		if err != nil {
			b.Fatal(err)
		}
		engine.NewSceneTree(root).Start()
		controller := root.MustGetNode(game.NodeController)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := game.ChangePalletColor(controller); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ——— Substrate benches ———

func BenchmarkGDScriptFib(b *testing.B) {
	script, err := gdscript.Parse("func fib(n):\n\tif n < 2:\n\t\treturn n\n\treturn fib(n - 1) + fib(n - 2)\n")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := gdscript.NewInstance(script, nil)
	if err != nil {
		b.Fatal(err)
	}
	inst.MaxSteps = 1 << 40
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("fib", int64(15)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimDDoSScenario(b *testing.B) {
	net := netsim.StandardNetwork()
	s, ok := netsim.LookupScenario("ddos")
	if !ok {
		b.Fatal("ddos scenario missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		trace, err := netsim.GenerateTraceArena(context.Background(), nil, s, net, rng.Int63(), 1, netsim.Params{Duration: 40})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trace.WindowsCSRArena(context.Background(), nil, net, 10, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioThroughput measures the concurrent scenario
// engine's event generation rate (events/s) at 1, 4, and NumCPU
// workers over the windowless sparse fold (GenerateCSRArena) — the
// throughput curve EXPERIMENTS.md records.
func BenchmarkScenarioThroughput(b *testing.B) {
	net := netsim.ScaledNetwork(64)
	s, ok := netsim.LookupScenario("ddos")
	if !ok {
		b.Fatal("ddos scenario missing")
	}
	p := netsim.Params{Scale: 64}
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := netsim.GenerateCSRArena(context.Background(), nil, s, net, 7, workers, p)
				if err != nil {
					b.Fatal(err)
				}
				events = stats.Events
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkTraceThroughput is the trace-materializing counterpart:
// the full event list, sorted, at serial and parallel worker counts.
func BenchmarkTraceThroughput(b *testing.B) {
	net := netsim.ScaledNetwork(64)
	s, ok := netsim.LookupScenario("background")
	if !ok {
		b.Fatal("background scenario missing")
	}
	p := netsim.Params{Duration: 120, Rate: 400, Scale: 4}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				trace, err := netsim.GenerateTraceArena(context.Background(), nil, s, net, 7, workers, p)
				if err != nil {
					b.Fatal(err)
				}
				events = len(trace)
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkCOOMerge measures the aggregation hot path: compacting
// one combined slice of triples, the counting sort the sparse fold
// sums its aggregate with.
func BenchmarkCOOMerge(b *testing.B) {
	const triples = 8 * 40000
	b.Run("compact-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rng := rand.New(rand.NewSource(13))
			all := matrix.NewCOO(256, 256)
			for k := 0; k < triples; k++ {
				all.Add(rng.Intn(256), rng.Intn(256), 1+rng.Intn(6))
			}
			b.StartTimer()
			all.Compact()
		}
	})
}

// BenchmarkComposedScenario measures the composition algebra's
// overhead on the sparse end-to-end path: a three-layer mixture
// (background overlaying a scan→ddos sequence) generated straight to
// CSR and disentangled by the mixture classifier, at serial and
// parallel worker counts.
func BenchmarkComposedScenario(b *testing.B) {
	net := netsim.ScaledNetwork(64)
	zones, err := net.Zones()
	if err != nil {
		b.Fatal(err)
	}
	s, err := netsim.ParseSpec("overlay(background, sequence(scan, ddos))")
	if err != nil {
		b.Fatal(err)
	}
	p := netsim.Params{Duration: 120, Rate: 200, Scale: 4}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				csr, stats, err := netsim.GenerateCSRArena(context.Background(), nil, s, net, 7, workers, p)
				if err != nil {
					b.Fatal(err)
				}
				if mixture := patterns.ClassifyMixtureOf(csr, zones); len(mixture) == 0 {
					b.Fatal("mixture classifier found nothing")
				}
				events = stats.Events
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkPermuteCSR measures the host-permutation kernel (the
// Relabel combinator's matrix-level equivalent) on a scaled scenario
// matrix.
func BenchmarkPermuteCSR(b *testing.B) {
	net := netsim.ScaledNetwork(1000)
	s, ok := netsim.LookupScenario("background")
	if !ok {
		b.Fatal("background scenario missing")
	}
	csr, _, err := netsim.GenerateCSRArena(context.Background(), nil, s, net, 7, 0, netsim.Params{Duration: 60, Rate: 4000})
	if err != nil {
		b.Fatal(err)
	}
	perm := make([]int, csr.Rows())
	for i := range perm {
		perm[i] = (i + 1) % len(perm) // cyclic shift: every row moves
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.PermuteCSR(csr, perm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyGraph(b *testing.B) {
	var mats []*matrix.Dense
	for _, e := range patterns.ByFamily(patterns.FamilyGraph) {
		m, _, err := e.Build()
		if err != nil {
			b.Fatal(err)
		}
		mats = append(mats, m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range mats {
			if patterns.ClassifyGraph(m) == patterns.GraphUnknown {
				b.Fatal("catalog pattern unclassified")
			}
		}
	}
}

func BenchmarkSceneTreeBuild(b *testing.B) {
	m := core.MustTemplate(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root, err := game.BuildLevelScene(m)
		if err != nil {
			b.Fatal(err)
		}
		engine.NewSceneTree(root).Start()
	}
}

func BenchmarkZipRoundTrip(b *testing.B) {
	lesson, err := modules.Curriculum()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := lesson.WriteZip(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.ReadZip("bench", buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// ——— helpers ———

func mustMatrix(m *core.Module) *matrix.Dense {
	mat, err := m.Matrix()
	if err != nil {
		panic(err)
	}
	return mat
}

func mustColors(m *core.Module) *matrix.Dense {
	mat, err := m.Colors()
	if err != nil {
		panic(err)
	}
	return mat
}
