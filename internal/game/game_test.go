package game

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/render"
)

func newTrainingGame(t *testing.T) *Game {
	t.Helper()
	g, err := New(TrainingLesson(), "tester", rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildLevelSceneShape(t *testing.T) {
	module := TrainingModule()
	root, err := BuildLevelScene(module)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := module.Dim()
	for _, name := range []string{NodeData, NodeController, NodeXAxis, NodeYAxis, NodePallets, NodeBoxes, NodeCamera, NodeUI} {
		if _, err := root.GetNode(name); err != nil {
			t.Errorf("scene missing %s: %v", name, err)
		}
	}
	pallets := root.MustGetNode(NodePallets)
	if pallets.ChildCount() != n*n {
		t.Errorf("pallet count = %d, want %d", pallets.ChildCount(), n*n)
	}
	xAxis := root.MustGetNode(NodeXAxis)
	if xAxis.ChildCount() != n {
		t.Errorf("X axis children = %d, want %d", xAxis.ChildCount(), n)
	}
	// Each label node: child 0 plinth, child 1 Label3D (the paper
	// indexes get_child(1)).
	label := xAxis.MustChild(0)
	if label.MustChild(1).Kind() != "Label3D" {
		t.Error("label child 1 is not the Label3D")
	}
}

func TestBuildLevelSceneRejectsInvalid(t *testing.T) {
	bad := TrainingModule()
	bad.AxisLabels = bad.AxisLabels[:2]
	if _, err := BuildLevelScene(bad); err == nil {
		t.Error("invalid module accepted")
	}
}

func TestControllerReadySetsLabels(t *testing.T) {
	module := TrainingModule()
	level, err := NewLevel(module)
	if err != nil {
		t.Fatal(err)
	}
	for _, axis := range []string{NodeXAxis, NodeYAxis} {
		texts := AxisLabelTexts(level.Scene().Root().MustGetNode(axis))
		for i, want := range module.AxisLabels {
			if texts[i] != want {
				t.Errorf("%s label %d = %q, want %q", axis, i, texts[i], want)
			}
		}
	}
}

func TestMaterialCodeRoundTrip(t *testing.T) {
	for code := 0; code <= 2; code++ {
		if got := CodeForMaterial(MaterialForCode(code)); got != code {
			t.Errorf("material round trip %d → %d", code, got)
		}
	}
	if MaterialForCode(9) != MaterialBlack {
		t.Error("unknown code did not map to black")
	}
	if CodeForMaterial(MaterialDefault) != -1 {
		t.Error("default material should map to -1")
	}
}

func TestChangePalletColorToggles(t *testing.T) {
	module := TrainingModule()
	level, err := NewLevel(module)
	if err != nil {
		t.Fatal(err)
	}
	if level.ColorsOn() {
		t.Fatal("colors start on")
	}
	if err := level.ToggleColors(); err != nil {
		t.Fatal(err)
	}
	if !level.ColorsOn() {
		t.Fatal("toggle did not enable colors")
	}
	n, _ := module.Dim()
	colors := level.sceneColorMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if colors.At(i, j) != module.TrafficMatrixColors[i][j] {
				t.Fatalf("scene color (%d,%d) = %d, want %d", i, j, colors.At(i, j), module.TrafficMatrixColors[i][j])
			}
		}
	}
	if err := level.ToggleColors(); err != nil {
		t.Fatal(err)
	}
	if level.ColorsOn() {
		t.Error("second toggle did not disable colors")
	}
}

func TestPlaceRemoveBox(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	// Cursor starts at (0,0): training matrix has 1 packet there.
	if err := level.PlaceBox(); err != nil {
		t.Fatal(err)
	}
	if level.Placed().At(0, 0) != 1 {
		t.Error("box not placed")
	}
	// The box exists as a scene node.
	boxes := level.Scene().Root().MustGetNode(NodeBoxes)
	if boxes.ChildCount() != 1 {
		t.Errorf("boxes node has %d children", boxes.ChildCount())
	}
	// The manifest caps placement.
	if err := level.PlaceBox(); err == nil {
		t.Error("overfill accepted")
	}
	if err := level.RemoveBox(); err != nil {
		t.Fatal(err)
	}
	if level.Placed().At(0, 0) != 0 || boxes.ChildCount() != 0 {
		t.Error("remove incomplete")
	}
	if err := level.RemoveBox(); err == nil {
		t.Error("remove from empty accepted")
	}
}

func TestPlaceBoxOnZeroCell(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	level.MoveCursor(0, 1) // (0,1) is 0 in the training matrix
	if err := level.PlaceBox(); err == nil {
		t.Error("placing on a zero cell accepted")
	}
}

func TestCursorClamping(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	level.MoveCursor(-5, -5)
	if r, c := level.Cursor(); r != 0 || c != 0 {
		t.Errorf("cursor = %d,%d", r, c)
	}
	level.MoveCursor(100, 100)
	n := level.Size()
	if r, c := level.Cursor(); r != n-1 || c != n-1 {
		t.Errorf("cursor = %d,%d", r, c)
	}
}

func TestFillAllCompletes(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	if level.Complete() {
		t.Fatal("level complete at start")
	}
	level.FillAll()
	if !level.Complete() || level.Remaining() != 0 {
		t.Error("FillAll did not complete")
	}
	if !level.Placed().Equal(level.Target()) {
		t.Error("placed != target after fill")
	}
}

func TestViewTogglesAndRotation(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	level.ToggleView()
	if !level.Mode3D() {
		t.Error("toggle to 3D failed")
	}
	cam := level.Scene().Root().MustGetNode(NodeCamera)
	if !cam.Props().GetBool("mode_3d", false) {
		t.Error("camera prop not updated")
	}
	level.RotateRight()
	if level.Rotation() != render.Rotation(1) {
		t.Error("rotate right failed")
	}
	level.RotateLeft()
	level.RotateLeft()
	if level.Rotation() != render.Rotation(3) {
		t.Errorf("rotation = %v", level.Rotation())
	}
	if cam.Props().GetInt("rotation_steps", -1) != 3 {
		t.Error("camera rotation prop not updated")
	}
}

func TestLevelRenderShowsProgress(t *testing.T) {
	level, err := NewLevel(TrainingModule())
	if err != nil {
		t.Fatal(err)
	}
	_ = level.PlaceBox()
	fb, err := level.Render()
	if err != nil {
		t.Fatal(err)
	}
	text := fb.Text()
	if !strings.Contains(text, "1/1") {
		t.Errorf("2D progress missing:\n%s", text)
	}
	level.ToggleView()
	fb3, err := level.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb3.Text(), "[]") {
		t.Error("3D view missing the placed box")
	}
}

func TestGameFlowCompleteLesson(t *testing.T) {
	g := newTrainingGame(t)
	if g.Phase() != PhasePlaying {
		t.Fatal("not playing at start")
	}
	// Walk all training steps.
	for i := 0; i < len(TrainingSteps)-1; i++ {
		g.Update(ActionNext)
	}
	// Not complete yet: Next complains.
	msg := g.Update(ActionNext)
	if !strings.Contains(msg, "still to place") {
		t.Errorf("incomplete Next message = %q", msg)
	}
	g.Update(ActionFillAll)
	g.Update(ActionNext)
	if g.Phase() != PhaseQuestion {
		t.Fatalf("phase = %v, want question", g.Phase())
	}
	q, ok := g.Question()
	if !ok {
		t.Fatal("no question presented")
	}
	answers := []Action{ActionAnswer1, ActionAnswer2, ActionAnswer3}
	msg = g.Update(answers[q.CorrectOption])
	if !strings.Contains(msg, "correct") {
		t.Errorf("answer feedback = %q", msg)
	}
	if g.Phase() != PhaseModuleDone {
		t.Fatalf("phase = %v", g.Phase())
	}
	g.Update(ActionNext)
	if g.Phase() != PhaseLessonDone || !g.Done() {
		t.Error("lesson did not finish")
	}
	if g.Session().Score() != 1.0 {
		t.Errorf("score = %f", g.Session().Score())
	}
}

func TestGameWrongAnswerRecorded(t *testing.T) {
	g := newTrainingGame(t)
	g.Update(ActionFillAll)
	for g.Phase() == PhasePlaying {
		g.Update(ActionNext)
	}
	q, _ := g.Question()
	wrong := (q.CorrectOption + 1) % len(q.Options)
	msg := g.Update([]Action{ActionAnswer1, ActionAnswer2, ActionAnswer3}[wrong])
	if !strings.Contains(msg, "not quite") {
		t.Errorf("wrong-answer feedback = %q", msg)
	}
	if g.Session().CorrectCount() != 0 || g.Session().Answered() != 1 {
		t.Error("session not updated")
	}
}

func TestGameQuit(t *testing.T) {
	g := newTrainingGame(t)
	g.Update(ActionQuit)
	if !g.Done() || !g.Quit() {
		t.Error("quit ignored")
	}
}

func TestGameViewOverlays(t *testing.T) {
	g := newTrainingGame(t)
	view := g.View()
	if !strings.Contains(view, "[training 1/") {
		t.Errorf("training overlay missing:\n%s", view)
	}
	g.Update(ActionFillAll)
	for g.Phase() == PhasePlaying {
		g.Update(ActionNext)
	}
	view = g.View()
	if !strings.Contains(view, "How many packets did ADV1 send to SRV1?") {
		t.Errorf("question overlay missing:\n%s", view)
	}
	if !strings.Contains(view, "1)") || !strings.Contains(view, "3)") {
		t.Error("options not numbered")
	}
}

func TestGamePlayScripted(t *testing.T) {
	g := newTrainingGame(t)
	src, err := NewScriptSource("colors view rotr rotl fill next next next next next next next")
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	g.Play(src, func(string) { frames++ })
	// Script ends at the question (no answer given).
	if g.Phase() != PhaseQuestion {
		t.Errorf("phase after script = %v", g.Phase())
	}
	if frames == 0 {
		t.Error("no frames rendered")
	}
}

func TestGameMultiModuleLesson(t *testing.T) {
	lesson := &core.Lesson{Name: "two", Modules: []*core.Module{
		core.MustTemplate(6),
		core.MustTemplate(10),
	}}
	g, err := New(lesson, "s", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for module := 0; module < 2; module++ {
		g.Update(ActionFillAll)
		for g.Phase() == PhasePlaying {
			g.Update(ActionNext)
		}
		if q, ok := g.Question(); ok {
			g.Update([]Action{ActionAnswer1, ActionAnswer2, ActionAnswer3}[q.CorrectOption])
		}
		g.Update(ActionNext)
	}
	if !g.Done() {
		t.Error("two-module lesson did not finish")
	}
	if g.Session().Answered() != 2 || g.Session().Score() != 1.0 {
		t.Errorf("session: %d answered, score %f", g.Session().Answered(), g.Session().Score())
	}
}

func TestGameRejectsEmptyAndInvalidLessons(t *testing.T) {
	if _, err := New(&core.Lesson{Name: "empty"}, "s", nil); err == nil {
		t.Error("empty lesson accepted")
	}
	bad := core.MustTemplate(6)
	bad.Name = ""
	if _, err := New(&core.Lesson{Name: "bad", Modules: []*core.Module{bad}}, "s", nil); err == nil {
		t.Error("invalid lesson accepted")
	}
}

func TestUIQuestionVisibility(t *testing.T) {
	g := newTrainingGame(t)
	ui := g.Level().Scene().Root().MustGetNode(NodeUI)
	if ui.Props().GetBool("question_visible", true) {
		t.Error("question visible at start")
	}
	g.Update(ActionFillAll)
	for g.Phase() == PhasePlaying {
		g.Update(ActionNext)
	}
	if !ui.Props().GetBool("question_visible", false) {
		t.Error("question not visible during question phase")
	}
	q, _ := g.Question()
	g.Update([]Action{ActionAnswer1, ActionAnswer2, ActionAnswer3}[q.CorrectOption])
	if ui.Props().GetBool("question_visible", true) {
		t.Error("question still visible after answering")
	}
}

func TestRenderStaticBothViews(t *testing.T) {
	m := TrainingModule()
	fb2, err := RenderStatic(m, false, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb2.Text(), "SRV1") {
		t.Error("2D static missing labels")
	}
	fb3, err := RenderStatic(m, true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb3.Text(), "[]") {
		t.Error("3D static missing boxes")
	}
}

func TestTrainingModuleValid(t *testing.T) {
	m := TrainingModule()
	if issues := m.Validate(); !issues.OK() {
		t.Errorf("training module invalid:\n%s", issues.Errs())
	}
	// The stated answer must match the matrix: ADV1 (row 4) →
	// SRV1 (col 2) is 3 packets, answers[2] = "3".
	if m.TrafficMatrix[4][2] != 3 || m.Answers[m.CorrectAnswerElement] != "3" {
		t.Error("training question inconsistent with matrix")
	}
}
