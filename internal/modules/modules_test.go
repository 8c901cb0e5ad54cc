package modules

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/patterns"
	"repro/internal/quiz"
)

func TestAllLessonsValid(t *testing.T) {
	lessons, err := AllLessons()
	if err != nil {
		t.Fatal(err)
	}
	if len(lessons) != len(LessonNames) {
		t.Fatalf("lessons = %d", len(lessons))
	}
	total := 0
	for _, l := range lessons {
		if issues := l.Validate(); !issues.OK() {
			t.Errorf("lesson %s invalid:\n%s", l.Name, issues.Errs())
		}
		total += l.Len()
	}
	// training(1) + topologies(4) + attack(4) + sdd(3) + ddos(4) +
	// graph(9) = 25.
	if total != 25 {
		t.Errorf("total modules = %d, want 25", total)
	}
}

func TestFromEntryAnswers(t *testing.T) {
	for _, e := range patterns.Catalog() {
		m, err := FromEntry(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if m.Question != StandardQuestion {
			t.Errorf("%s: question %q", e.ID, m.Question)
		}
		if len(m.Answers) != core.RecommendedAnswerCount {
			t.Errorf("%s: %d answers", e.ID, len(m.Answers))
		}
		if m.Answers[m.CorrectAnswerElement] != e.Title {
			t.Errorf("%s: correct answer %q, want %q", e.ID,
				m.Answers[m.CorrectAnswerElement], e.Title)
		}
		// Distractors come from the same family.
		pool := map[string]bool{}
		for _, title := range patterns.FamilyTitles(e.Family) {
			pool[title] = true
		}
		for _, a := range m.Answers {
			if !pool[a] {
				t.Errorf("%s: answer %q not in family pool", e.ID, a)
			}
		}
	}
}

// TestCorrectAnswerPositionVaries: the authored correct index must
// not be the same for every module of a family with >3 concepts.
func TestCorrectAnswerPositionVaries(t *testing.T) {
	positions := map[int]bool{}
	for _, e := range patterns.ByFamily(patterns.FamilyGraph) {
		m, err := FromEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		positions[m.CorrectAnswerElement] = true
	}
	if len(positions) < 2 {
		t.Errorf("correct answer always at the same position: %v", positions)
	}
}

func TestLessonLookup(t *testing.T) {
	for _, name := range LessonNames {
		l, err := Lesson(name)
		if err != nil {
			t.Errorf("Lesson(%s): %v", name, err)
			continue
		}
		if l.Len() == 0 {
			t.Errorf("lesson %s empty", name)
		}
	}
	if _, err := Lesson("nope"); err == nil {
		t.Error("unknown lesson accepted")
	}
}

func TestCurriculumOrdering(t *testing.T) {
	c, err := Curriculum()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 25 {
		t.Fatalf("curriculum has %d modules", c.Len())
	}
	if c.Modules[0].Name != game.TrainingModuleName {
		t.Errorf("curriculum does not start with training: %q", c.Modules[0].Name)
	}
}

// TestCurriculumFullyPlayable: play the entire curriculum answering
// correctly; every module must load, complete, and score.
func TestCurriculumFullyPlayable(t *testing.T) {
	c, err := Curriculum()
	if err != nil {
		t.Fatal(err)
	}
	g, err := game.New(c, "integration", rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	answers := []game.Action{game.ActionAnswer1, game.ActionAnswer2, game.ActionAnswer3}
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
	if g.Session().Answered() != 25 {
		t.Errorf("answered %d questions, want 25", g.Session().Answered())
	}
	if g.Session().Score() != 1.0 {
		t.Errorf("perfect play scored %f", g.Session().Score())
	}
}

// TestModulesSurviveZipRoundTrip: the whole curriculum round-trips
// through the zip format losslessly.
func TestModulesSurviveZipRoundTrip(t *testing.T) {
	c, err := Curriculum()
	if err != nil {
		t.Fatal(err)
	}
	var buf writerBuffer
	if err := c.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadZip("curriculum", buf.data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("reloaded %d modules, want %d", back.Len(), c.Len())
	}
	for i := range c.Modules {
		if !c.Modules[i].Equal(back.Modules[i]) {
			t.Errorf("module %d (%s) changed", i, c.Modules[i].Name)
		}
	}
}

// writerBuffer is a minimal io.Writer accumulating bytes.
type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// TestShuffledModuleQuestionsGradeCorrectly: for every module,
// shuffling with many seeds always keeps grading consistent.
func TestShuffledModuleQuestionsGradeCorrectly(t *testing.T) {
	c, err := Curriculum()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Modules {
		q, ok := m.Quiz()
		if !ok {
			continue
		}
		for seed := int64(0); seed < 10; seed++ {
			p := quiz.Shuffle(q, rand.New(rand.NewSource(seed)))
			correct, err := p.Grade(p.CorrectOption)
			if err != nil || !correct {
				t.Fatalf("%s seed %d: grading broken", m.Name, seed)
			}
			if p.Options[p.CorrectOption] != q.CorrectText() {
				t.Fatalf("%s seed %d: correct text mismatch", m.Name, seed)
			}
		}
	}
}

// TestPatternBuildsOnce: every call for one panel, concurrent first
// calls included, gets the same module, and surrounding space in the
// ID is ignored. An unknown ID wraps ErrUnknownPattern.
func TestPatternBuildsOnce(t *testing.T) {
	const id = "fig9c-ddos-attack"
	got := make([]*core.Module, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Pattern(id)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}()
	}
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("call %d returned %p, call 0 %p", i, m, got[0])
		}
	}
	padded, err := Pattern(" " + id + " ")
	if err != nil || padded != got[0] {
		t.Fatalf("padded ID: %p, %v; want %p", padded, err, got[0])
	}
	entry, _ := patterns.Lookup(id)
	fresh, err := FromEntry(entry)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == got[0] || !reflect.DeepEqual(fresh, got[0]) {
		t.Error("FromEntry should build a fresh module equal to the shared one")
	}
	if _, err := Pattern("fig99-nope"); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("unknown pattern: err = %v", err)
	}
}
