// Package modules is the built-in learning-module library: the
// training level plus the five module sets of Figs 6–10, each
// figure panel converted into a playable module with the paper's
// standard question ("Which choice is the displayed traffic pattern
// most relevant to?") and three answer choices drawn from the same
// family.
package modules

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/patterns"
)

// StandardQuestion is the question every pattern module asks: "For
// all the modules, the question type is the same."
const StandardQuestion = "Which choice is the displayed traffic pattern most relevant to?"

// Author credited on the built-in modules.
const Author = "Traffic Warehouse"

// FromEntry converts a catalog entry into a playable module. The
// three answers are the correct title plus the next two titles from
// the family's answer pool (cyclically), so every module in a family
// shows plausible distractors and the choice count matches the
// paper's three-option design.
func FromEntry(e patterns.Entry) (*core.Module, error) {
	m, colors, err := e.Build()
	if err != nil {
		return nil, err
	}
	if m.Rows() != len(patterns.StandardLabels10) {
		return nil, fmt.Errorf("modules: entry %s is %dx%d; built-ins use the standard 10-label axis", e.ID, m.Rows(), m.Cols())
	}
	pool := patterns.FamilyTitles(e.Family)
	answers, correct := buildAnswers(pool, e.Title)
	return &core.Module{
		Name:                 titleCase(e.Title) + " (Fig " + e.Figure + ")",
		Size:                 core.FormatSize(m.Rows()),
		Author:               Author,
		Hint:                 e.Hint,
		AxisLabels:           append([]string(nil), patterns.StandardLabels10...),
		TrafficMatrix:        m.ToRows(),
		TrafficMatrixColors:  colors.ToRows(),
		HasQuestion:          true,
		Question:             StandardQuestion,
		Answers:              answers,
		CorrectAnswerElement: correct,
	}, nil
}

// ErrUnknownPattern reports a Pattern call with an ID the figure
// catalog does not hold.
var ErrUnknownPattern = errors.New("modules: unknown pattern")

// patternSlot is one catalog panel's module, built on first use.
type patternSlot struct {
	once  sync.Once
	entry patterns.Entry
	m     *core.Module
	err   error
}

// patternSlots maps every catalog ID to its build-once slot.
var patternSlots = sync.OnceValue(func() map[string]*patternSlot {
	slots := make(map[string]*patternSlot)
	for _, e := range patterns.Catalog() {
		slots[e.ID] = &patternSlot{entry: e}
	}
	return slots
})

// Pattern returns the playable module of one figure panel by catalog
// ID, ignoring surrounding space: the module /v1/module serves and a
// quiz attempt draws from. Each panel's module is built on its first
// call and shared by every later one, so callers must treat it as
// immutable (core.Module.Quiz copies what a quiz needs); FromEntry
// builds a fresh copy. An ID the catalog lacks wraps
// ErrUnknownPattern.
func Pattern(id string) (*core.Module, error) {
	id = strings.TrimSpace(id)
	slot, ok := patternSlots()[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownPattern, id)
	}
	slot.once.Do(func() { slot.m, slot.err = FromEntry(slot.entry) })
	return slot.m, slot.err
}

// buildAnswers selects three answers from the pool including the
// correct title; the authored position of the correct answer varies
// by its position in the pool (display order is shuffled at
// presentation anyway).
func buildAnswers(pool []string, correct string) ([]string, int) {
	idx := 0
	for i, t := range pool {
		if t == correct {
			idx = i
			break
		}
	}
	if len(pool) <= core.RecommendedAnswerCount {
		// Small families (e.g. SDD's three postures) use the whole
		// pool.
		out := append([]string(nil), pool...)
		for i, t := range out {
			if t == correct {
				return out, i
			}
		}
		return out, 0
	}
	answers := []string{
		correct,
		pool[(idx+1)%len(pool)],
		pool[(idx+2)%len(pool)],
	}
	// Rotate so the correct element is not always first in the
	// file (educators may read the JSON aloud).
	rot := idx % core.RecommendedAnswerCount
	rotated := append(answers[rot:], answers[:rot]...)
	for i, t := range rotated {
		if t == correct {
			return rotated, i
		}
	}
	return answers, 0
}

// titleCase uppercases the first letter of each word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if w == "ddos" || w == "DDoS" {
			words[i] = "DDoS"
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

// FamilyLesson builds the lesson for one module family, with panels
// in paper order.
func FamilyLesson(f patterns.Family) (*core.Lesson, error) {
	entries := patterns.ByFamily(f)
	if len(entries) == 0 {
		return nil, fmt.Errorf("modules: unknown family %q", f)
	}
	lesson := &core.Lesson{Name: slug(string(f))}
	for _, e := range entries {
		m, err := FromEntry(e)
		if err != nil {
			return nil, err
		}
		lesson.Modules = append(lesson.Modules, m)
	}
	return lesson, nil
}

// slug hyphenates a family name for use as a lesson name.
func slug(s string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "-")
}

// LessonNames lists the built-in lessons in curriculum order.
var LessonNames = []string{
	"training",
	"topologies",
	"attack",
	"security-defense-deterrence",
	"ddos",
	"graph-theory",
}

// Lesson returns a built-in lesson by name.
func Lesson(name string) (*core.Lesson, error) {
	switch name {
	case "training":
		return game.TrainingLesson(), nil
	case "topologies":
		return FamilyLesson(patterns.FamilyTopology)
	case "attack":
		return FamilyLesson(patterns.FamilyAttack)
	case "security-defense-deterrence":
		return FamilyLesson(patterns.FamilySDD)
	case "ddos":
		return FamilyLesson(patterns.FamilyDDoS)
	case "graph-theory":
		return FamilyLesson(patterns.FamilyGraph)
	default:
		return nil, fmt.Errorf("modules: unknown lesson %q (have %s)", name, strings.Join(LessonNames, ", "))
	}
}

// AllLessons returns every built-in lesson in curriculum order.
func AllLessons() ([]*core.Lesson, error) {
	var out []*core.Lesson
	for _, name := range LessonNames {
		l, err := Lesson(name)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// Curriculum concatenates every built-in lesson into one long
// lesson: the "core unit as part of a formal course" configuration.
func Curriculum() (*core.Lesson, error) {
	lessons, err := AllLessons()
	if err != nil {
		return nil, err
	}
	combined := &core.Lesson{Name: "curriculum"}
	for _, l := range lessons {
		combined.Modules = append(combined.Modules, l.Modules...)
	}
	return combined, nil
}
