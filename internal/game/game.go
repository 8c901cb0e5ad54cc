package game

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/quiz"
	"repro/internal/term"
)

// Phase is the game's current mode.
type Phase int

const (
	// PhasePlaying: the student is loading boxes (or exploring).
	PhasePlaying Phase = iota
	// PhaseQuestion: the module's multiple-choice question is up.
	PhaseQuestion
	// PhaseModuleDone: between modules, waiting for Next.
	PhaseModuleDone
	// PhaseLessonDone: every module has been presented.
	PhaseLessonDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePlaying:
		return "playing"
	case PhaseQuestion:
		return "question"
	case PhaseModuleDone:
		return "module done"
	case PhaseLessonDone:
		return "lesson done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Game runs a lesson: modules presented sequentially, each played to
// completion, each question asked with shuffled answers, the session
// scored at the end.
type Game struct {
	lesson  *core.Lesson
	rng     *rand.Rand
	session *quiz.Session

	index    int
	level    *Level
	phase    Phase
	question quiz.Presented
	hasQ     bool

	// trainingStep indexes TrainingSteps while the training module
	// is active; -1 otherwise.
	trainingStep int

	// message is transient feedback shown under the view.
	message string
	// quit is set by ActionQuit.
	quit bool
}

// New creates a game over a lesson. The rng drives answer
// shuffling; pass a seeded source for reproducible classroom runs.
func New(lesson *core.Lesson, student string, rng *rand.Rand) (*Game, error) {
	if lesson == nil || len(lesson.Modules) == 0 {
		return nil, fmt.Errorf("game: empty lesson")
	}
	if issues := lesson.Validate(); !issues.OK() {
		return nil, fmt.Errorf("game: lesson %q is invalid:\n%s", lesson.Name, issues.Errs())
	}
	g := &Game{
		lesson:  lesson,
		rng:     rng,
		session: quiz.NewSession(student),
	}
	if err := g.loadModule(0); err != nil {
		return nil, err
	}
	return g, nil
}

// loadModule switches to module idx.
func (g *Game) loadModule(idx int) error {
	level, err := NewLevel(g.lesson.Modules[idx])
	if err != nil {
		return err
	}
	g.index = idx
	g.level = level
	g.phase = PhasePlaying
	g.hasQ = false
	g.message = ""
	if level.Module().Name == TrainingModuleName {
		g.trainingStep = 0
	} else {
		g.trainingStep = -1
	}
	return nil
}

// Level returns the active level.
func (g *Game) Level() *Level { return g.level }

// Phase returns the current phase.
func (g *Game) Phase() Phase { return g.phase }

// Session returns the quiz session (live; do not mutate).
func (g *Game) Session() *quiz.Session { return g.session }

// Done reports whether the lesson is over (completed or quit).
func (g *Game) Done() bool { return g.phase == PhaseLessonDone || g.quit }

// Quit reports whether the player quit early.
func (g *Game) Quit() bool { return g.quit }

// Question returns the currently presented question during
// PhaseQuestion.
func (g *Game) Question() (quiz.Presented, bool) {
	return g.question, g.phase == PhaseQuestion && g.hasQ
}

// Update applies one player action and returns transient feedback
// (empty when silent).
func (g *Game) Update(a Action) string {
	g.message = ""
	switch g.phase {
	case PhasePlaying:
		g.updatePlaying(a)
	case PhaseQuestion:
		g.updateQuestion(a)
	case PhaseModuleDone:
		switch a {
		case ActionNext:
			g.advanceModule()
		case ActionQuit:
			g.quit = true
		}
	case PhaseLessonDone:
		if a == ActionQuit {
			g.quit = true
		}
	}
	return g.message
}

// updatePlaying handles actions during play.
func (g *Game) updatePlaying(a Action) {
	l := g.level
	switch a {
	case ActionUp:
		l.MoveCursor(-1, 0)
	case ActionDown:
		l.MoveCursor(1, 0)
	case ActionLeft:
		l.MoveCursor(0, -1)
	case ActionRight:
		l.MoveCursor(0, 1)
	case ActionPlaceBox:
		if err := l.PlaceBox(); err != nil {
			g.message = err.Error()
		}
	case ActionRemoveBox:
		if err := l.RemoveBox(); err != nil {
			g.message = err.Error()
		}
	case ActionFillAll:
		l.FillAll()
		g.message = "all boxes placed"
	case ActionToggleView:
		l.ToggleView()
	case ActionRotateLeft:
		l.RotateLeft()
	case ActionRotateRight:
		l.RotateRight()
	case ActionToggleColors:
		if err := l.ToggleColors(); err != nil {
			g.message = err.Error()
		}
	case ActionNext:
		if g.trainingStep >= 0 && g.trainingStep < len(TrainingSteps)-1 {
			g.trainingStep++
			return
		}
		if !l.Complete() {
			g.message = fmt.Sprintf("%d boxes still to place", l.Remaining())
			return
		}
		g.finishPlacement()
	case ActionQuit:
		g.quit = true
	}
	if g.phase == PhasePlaying && l.Complete() && a == ActionPlaceBox {
		g.message = "all packets placed! press N to continue"
	}
}

// finishPlacement moves from play to the question (or straight to
// module done).
func (g *Game) finishPlacement() {
	q, ok := g.level.Module().Quiz()
	if !ok {
		g.phase = PhaseModuleDone
		g.message = "module complete"
		return
	}
	// "Traffic Warehouse will randomize the list that has the
	// answers when they are displayed."
	g.question = quiz.Shuffle(q, g.rng)
	g.hasQ = true
	g.phase = PhaseQuestion
	ui := g.level.Scene().Root().MustGetNode(NodeUI)
	_ = ui.Props().Set("question_visible", true)
}

// updateQuestion handles answer selection.
func (g *Game) updateQuestion(a Action) {
	var choice int
	switch a {
	case ActionAnswer1:
		choice = 0
	case ActionAnswer2:
		choice = 1
	case ActionAnswer3:
		choice = 2
	case ActionQuit:
		g.quit = true
		return
	default:
		return
	}
	if choice >= len(g.question.Options) {
		g.message = "no such option"
		return
	}
	correct, err := g.session.Record(g.question, choice)
	if err != nil {
		g.message = err.Error()
		return
	}
	if correct {
		g.message = "correct!"
	} else {
		g.message = fmt.Sprintf("not quite — the answer was %q", g.question.Options[g.question.CorrectOption])
	}
	ui := g.level.Scene().Root().MustGetNode(NodeUI)
	_ = ui.Props().Set("question_visible", false)
	g.phase = PhaseModuleDone
}

// advanceModule moves to the next module or ends the lesson.
func (g *Game) advanceModule() {
	if g.index+1 >= len(g.lesson.Modules) {
		g.phase = PhaseLessonDone
		return
	}
	if err := g.loadModule(g.index + 1); err != nil {
		// A module that validated at construction should always
		// load; fail safe by ending the lesson with the error shown.
		g.message = err.Error()
		g.phase = PhaseLessonDone
	}
}

// View renders the full game screen as plain text (the ANSI variant
// is Screen).
func (g *Game) View() string {
	var b strings.Builder
	fb, err := g.level.Render()
	if err != nil {
		return fmt.Sprintf("render error: %v\n", err)
	}
	b.WriteString(fb.Text())
	g.writeOverlay(&b)
	return b.String()
}

// Screen renders the full game screen with ANSI colors.
func (g *Game) Screen() string {
	var b strings.Builder
	fb, err := g.level.Render()
	if err != nil {
		return fmt.Sprintf("render error: %v\n", err)
	}
	b.WriteString(fb.ANSI())
	g.writeOverlay(&b)
	return b.String()
}

// writeOverlay appends the textual UI below the rendered view:
// training steps, question panel, progress, and transient messages.
func (g *Game) writeOverlay(b *strings.Builder) {
	fmt.Fprintf(b, "\nmodule %d/%d — %s\n", g.index+1, len(g.lesson.Modules), g.phase)
	if g.trainingStep >= 0 && g.phase == PhasePlaying {
		fmt.Fprintf(b, "\n[training %d/%d]\n%s\n", g.trainingStep+1, len(TrainingSteps), TrainingSteps[g.trainingStep])
	}
	if g.phase == PhaseQuestion && g.hasQ {
		fmt.Fprintf(b, "\n%s\n", g.question.Prompt)
		for i, opt := range g.question.Options {
			fmt.Fprintf(b, "  %d) %s\n", i+1, opt)
		}
		if hint := g.level.Module().Hint; hint != "" {
			fmt.Fprintf(b, "  hint: %s\n", hint)
		}
	}
	if g.phase == PhaseLessonDone {
		b.WriteString("\n" + g.session.Report())
	}
	if g.message != "" {
		fmt.Fprintf(b, "\n» %s\n", g.message)
	}
}

// Play drives the game from an input source until input runs out or
// the lesson ends, writing each frame to out (which may be nil for
// headless runs). It returns the final session.
func (g *Game) Play(src Source, out func(frame string)) *quiz.Session {
	if out != nil {
		out(g.View())
	}
	for !g.Done() {
		a, ok := src.Next()
		if !ok {
			break
		}
		g.Update(a)
		if out != nil {
			out(g.View())
		}
	}
	return g.session
}

// Banner renders the game's startup banner.
func Banner() string {
	title := term.Style{FG: term.BrightYellow, Bold: true}
	return title.Apply("TRAFFIC WAREHOUSE") + " — learn network traffic matrices by loading the floor\n"
}
