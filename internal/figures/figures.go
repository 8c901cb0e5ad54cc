package figures

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/game"
	"repro/internal/gdscript"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/render"
)

// Artifact is one regenerated file: text, or a PPM image when PPM
// is non-nil.
type Artifact struct {
	// Name is the suggested file name.
	Name string
	// Text is the text content (empty for images).
	Text string
	// PPM holds binary image bytes when the artifact is an image.
	PPM []byte
}

// Figure is one paper artifact with its regeneration function.
type Figure struct {
	// ID is the experiment id ("T1", "F5", …).
	ID string
	// Paper names the artifact as the paper does.
	Paper string
	// Title describes the content.
	Title string
	// Generate produces the artifacts and a one-line summary of the
	// reproduced claim.
	Generate func() ([]Artifact, string, error)
}

// All returns every table and figure in paper order.
func All() []Figure {
	return []Figure{
		{ID: "T1", Paper: "Table I", Title: "Game engine comparison", Generate: genTableI},
		{ID: "T2", Paper: "Table II", Title: "3D modeling tool comparison", Generate: genTableII},
		{ID: "F1", Paper: "Fig 1", Title: "Hello World in C#, Python, and GDScript", Generate: genFig1},
		{ID: "F2", Paper: "Fig 2", Title: "Scene tree of the training level", Generate: genFig2},
		{ID: "F3", Paper: "Fig 3", Title: "Export variables in the Inspector", Generate: genFig3},
		{ID: "F4", Paper: "Fig 4", Title: "X and Y label nodes", Generate: genFig4},
		{ID: "F5", Paper: "Fig 5", Title: "Traffic matrix training level", Generate: genFig5},
		{ID: "F6", Paper: "Fig 6", Title: "Traffic topologies", Generate: genFamily(patterns.FamilyTopology, classifyTopology)},
		{ID: "F7", Paper: "Fig 7", Title: "Notional attack", Generate: genFamily(patterns.FamilyAttack, classifyAttack)},
		{ID: "F8", Paper: "Fig 8", Title: "Security, defense, deterrence", Generate: genFamily(patterns.FamilySDD, classifySDD)},
		{ID: "F9", Paper: "Fig 9", Title: "DDoS attack", Generate: genFig9},
		{ID: "F10", Paper: "Fig 10", Title: "Graph theory patterns", Generate: genFamily(patterns.FamilyGraph, classifyGraph)},
	}
}

// Lookup finds a figure by ID.
func Lookup(id string) (Figure, bool) {
	for _, f := range All() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

func genTableI() ([]Artifact, string, error) {
	t := TableI()
	return []Artifact{{Name: "table1_engines.txt", Text: t.Render()}},
		fmt.Sprintf("6 criteria × 3 engines; Godot selected for cost (%q) and GDScript", t.Rows[0].Cells[0]), nil
}

func genTableII() ([]Artifact, string, error) {
	t := TableII()
	// Verify the MagicaVoxel column's capability claims against the
	// voxel substitute so the table is backed by living code.
	checks := VerifyVoxelCapabilities()
	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString("\nMagicaVoxel-column capabilities verified against internal/voxel:\n")
	failed := 0
	for _, c := range checks {
		mark := "ok"
		if !c.OK {
			mark = "FAIL"
			failed++
		}
		fmt.Fprintf(&b, "  [%s] %s — %s\n", mark, c.Claim, c.Evidence)
	}
	if failed > 0 {
		return nil, "", fmt.Errorf("figures: %d Table II capability checks failed", failed)
	}
	return []Artifact{{Name: "table2_modeling.txt", Text: b.String()}},
		fmt.Sprintf("5 criteria × 3 tools; all %d MagicaVoxel capability rows verified in code", len(checks)), nil
}

func genFig1() ([]Artifact, string, error) {
	script, err := gdscript.Parse(gdscript.HelloWorldGDScript)
	if err != nil {
		return nil, "", err
	}
	inst, err := gdscript.NewInstance(script, nil)
	if err != nil {
		return nil, "", err
	}
	if err := inst.Ready(); err != nil {
		return nil, "", err
	}
	output := inst.Stdout.String()
	if output != "Hello, world!\n" {
		return nil, "", fmt.Errorf("figures: GDScript hello world printed %q", output)
	}
	var b strings.Builder
	b.WriteString("(a) C#\n" + gdscript.HelloWorldCSharp + "\n")
	b.WriteString("(b) Python\n" + gdscript.HelloWorldPython + "\n")
	b.WriteString("(c) GDScript\n" + gdscript.HelloWorldGDScript + "\n")
	b.WriteString("GDScript listing executed by internal/gdscript, output: " + output)
	return []Artifact{{Name: "fig1_hello_world.txt", Text: b.String()}},
		"three listings reproduced; the GDScript one runs on our interpreter and prints Hello, world!", nil
}

// trainingScene builds and starts the training level scene.
func trainingScene() (*engine.SceneTree, error) {
	root, err := game.BuildLevelScene(game.TrainingModule())
	if err != nil {
		return nil, err
	}
	tree := engine.NewSceneTree(root)
	tree.Start()
	return tree, nil
}

func genFig2() ([]Artifact, string, error) {
	tree, err := trainingScene()
	if err != nil {
		return nil, "", err
	}
	text := tree.Root().TreeString()
	nodes := 0
	tree.Root().Walk(func(*engine.Node) bool { nodes++; return true })
	return []Artifact{{Name: "fig2_scene_tree.txt", Text: text}},
		fmt.Sprintf("training-level scene tree rebuilt: %d nodes under %s", nodes, tree.Root().Name()), nil
}

func genFig3() ([]Artifact, string, error) {
	tree, err := trainingScene()
	if err != nil {
		return nil, "", err
	}
	controller := tree.Root().MustGetNode(game.NodeController)
	text := engine.Inspector(controller)
	return []Artifact{{Name: "fig3_inspector.txt", Text: text}},
		fmt.Sprintf("controller exports %d variables editable in the Inspector", controller.Props().Len()), nil
}

func genFig4() ([]Artifact, string, error) {
	tree, err := trainingScene()
	if err != nil {
		return nil, "", err
	}
	x := tree.Root().MustGetNode(game.NodeXAxis)
	y := tree.Root().MustGetNode(game.NodeYAxis)
	text := x.TreeString() + "\n" + y.TreeString()
	return []Artifact{{Name: "fig4_axis_nodes.txt", Text: text}},
		fmt.Sprintf("X and Y axes carry %d and %d label nodes", x.ChildCount(), y.ChildCount()), nil
}

func genFig5() ([]Artifact, string, error) {
	module := game.TrainingModule()
	var arts []Artifact

	// (a) 2D view.
	fb2d, err := game.RenderStatic(module, false, 0, true)
	if err != nil {
		return nil, "", err
	}
	arts = append(arts, Artifact{Name: "fig5a_training_2d.txt", Text: fb2d.Text()})

	// (b) 3D view.
	fb3d, err := game.RenderStatic(module, true, 0, true)
	if err != nil {
		return nil, "", err
	}
	arts = append(arts, Artifact{Name: "fig5b_training_3d.txt", Text: fb3d.Text()})

	// (c) all packets placed, reached by actually playing.
	g, err := game.New(game.TrainingLesson(), "figure-harness", rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, "", err
	}
	for _, a := range []game.Action{game.ActionToggleColors, game.ActionFillAll, game.ActionToggleView} {
		g.Update(a)
	}
	if !g.Level().Complete() {
		return nil, "", fmt.Errorf("figures: training level not complete after fill")
	}
	fbDone, err := g.Level().Render()
	if err != nil {
		return nil, "", err
	}
	arts = append(arts, Artifact{Name: "fig5c_training_complete.txt", Text: fbDone.Text()})

	// Voxel-exact PPM screenshot of the completed warehouse.
	target := g.Level().Target()
	colors, err := module.Colors()
	if err != nil {
		return nil, "", err
	}
	scene, err := render.ComposeWarehouse(target, colors, g.Level().Placed(), true)
	if err != nil {
		return nil, "", err
	}
	iso := render.VoxelIso(scene, 0)
	var ppm bytes.Buffer
	if err := iso.WritePPM(&ppm, 2, 4); err != nil {
		return nil, "", err
	}
	arts = append(arts, Artifact{Name: "fig5c_training_complete.ppm", PPM: ppm.Bytes()})

	return arts, fmt.Sprintf("training level rendered 2D+3D and played to completion (%d boxes placed)", target.Sum()), nil
}

// classify callbacks return a verdict line for a family panel.
type classifier func(m *matrix.Dense, e patterns.Entry) (string, bool)

func classifyTopology(m *matrix.Dense, e patterns.Entry) (string, bool) {
	got := patterns.ClassifyTopologyOf(m, patterns.StandardZones10)
	return got.String(), got.String() == e.Title
}

func classifyAttack(m *matrix.Dense, e patterns.Entry) (string, bool) {
	got, conf := patterns.ClassifyAttackStageOf(m, patterns.StandardZones10)
	return fmt.Sprintf("%s (confidence %.2f)", got, conf), got.String() == e.Title
}

func classifySDD(m *matrix.Dense, e patterns.Entry) (string, bool) {
	got, conf := patterns.ClassifyPosture(m, patterns.StandardZones10)
	return fmt.Sprintf("%s (confidence %.2f)", got, conf), got.String() == e.Title
}

func classifyGraph(m *matrix.Dense, e patterns.Entry) (string, bool) {
	got := patterns.ClassifyGraph(m)
	return got.String(), got.String() == e.Title
}

// genFamily renders every panel of a module family with its color
// overlay and checks the family classifier recovers the panel's
// concept.
func genFamily(family patterns.Family, classify classifier) func() ([]Artifact, string, error) {
	return func() ([]Artifact, string, error) {
		var arts []Artifact
		correct, total := 0, 0
		var summary []string
		for _, e := range patterns.ByFamily(family) {
			m, colors, err := e.Build()
			if err != nil {
				return nil, "", err
			}
			fb, err := render.Matrix2D(m, render.Matrix2DOptions{
				Labels:     patterns.StandardLabels10,
				Colors:     colors,
				ShowColors: true,
				Title:      fmt.Sprintf("Fig %s: %s", e.Figure, e.Title),
			})
			if err != nil {
				return nil, "", err
			}
			verdict, ok := classify(m, e)
			total++
			if ok {
				correct++
			}
			text := fb.Text() + fmt.Sprintf("\nclassifier: %s — %s\n", verdict, okString(ok))
			arts = append(arts, Artifact{Name: fmt.Sprintf("fig%s_%s.txt", e.Figure, slugify(e.Title)), Text: text})
			summary = append(summary, fmt.Sprintf("%s→%s", e.Figure, okString(ok)))
		}
		if correct != total {
			return nil, "", fmt.Errorf("figures: %s: classifier recovered %d/%d panels", family, correct, total)
		}
		return arts, fmt.Sprintf("%d/%d panels classified correctly (%s)", correct, total, strings.Join(summary, " ")), nil
	}
}

// genFig9 extends the family generator with the netsim cross-check:
// the live DDoS scenario must reproduce the same component shapes.
func genFig9() ([]Artifact, string, error) {
	roles, err := patterns.AssignDDoSRoles(patterns.StandardZones10)
	if err != nil {
		return nil, "", err
	}
	arts, summary, err := genFamily(patterns.FamilyDDoS, func(m *matrix.Dense, e patterns.Entry) (string, bool) {
		got, conf := patterns.ClassifyDDoSOf(m, roles)
		return fmt.Sprintf("%s (confidence %.2f)", got, conf), got.String() == e.Title
	})()
	if err != nil {
		return nil, "", err
	}

	// Cross-check: simulate the DDoS live and classify each phase
	// window.
	net := netsim.StandardNetwork()
	rng := rand.New(rand.NewSource(99))
	scn, ok := netsim.LookupScenario("ddos")
	sched, scheduled := scn.(netsim.Scheduler)
	if !ok || !scheduled {
		return nil, "", fmt.Errorf("figures: catalog has no scheduled ddos scenario")
	}
	p := netsim.Params{Duration: 40}
	trace, err := netsim.GenerateTraceArena(context.TODO(), nil, scn, net, rng.Int63(), 1, p)
	if err != nil {
		return nil, "", err
	}
	phases := sched.Schedule(p)
	var b strings.Builder
	b.WriteString("Live netsim DDoS cross-check (10s windows over a 40s scenario):\n")
	matched := 0
	for _, phase := range phases {
		window := trace.Between(phase.Start, phase.End)
		m, _ := window.Matrix(net)
		got, conf := patterns.ClassifyDDoSOf(m, roles)
		ok := got.String() == phase.Label
		if ok {
			matched++
		}
		fmt.Fprintf(&b, "  [%5.1fs,%5.1fs) %-20s → %-20s conf %.2f %s\n",
			phase.Start, phase.End, phase.Label, got, conf, okString(ok))
	}
	if matched != len(phases) {
		return nil, "", fmt.Errorf("figures: netsim DDoS phases matched %d/%d", matched, len(phases))
	}
	arts = append(arts, Artifact{Name: "fig9_netsim_crosscheck.txt", Text: b.String()})
	return arts, summary + fmt.Sprintf("; live scenario phases matched %d/%d", matched, len(phases)), nil
}

func okString(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}

// slugify lowercases and hyphenates a title for file names.
func slugify(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '-':
			out = append(out, '-')
		}
	}
	return string(out)
}

// Module library sanity used by the harness summary: every built-in
// lesson validates.
func builtinLessonCount() (int, error) {
	lessons, err := modules.AllLessons()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, l := range lessons {
		if issues := l.Validate(); !issues.OK() {
			return 0, fmt.Errorf("figures: lesson %s invalid: %s", l.Name, issues.Errs())
		}
		n += l.Len()
	}
	return n, nil
}

// Summary runs every figure and returns the experiment-index
// summary block, used by cmd/twfigures and EXPERIMENTS.md.
func Summary() (string, error) {
	var b strings.Builder
	b.WriteString("Paper artifact reproduction summary\n")
	for _, f := range All() {
		_, line, err := f.Generate()
		if err != nil {
			return "", fmt.Errorf("%s (%s): %w", f.ID, f.Paper, err)
		}
		fmt.Fprintf(&b, "  %-3s %-9s %s — %s\n", f.ID, f.Paper, f.Title+":", line)
	}
	n, err := builtinLessonCount()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  built-in module library: %d modules across %d lessons, all valid\n", n, len(modules.LessonNames))
	return b.String(), nil
}
