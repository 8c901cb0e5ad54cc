// Package core implements the paper's primary contribution: the
// extensible learning-module file format of Traffic Warehouse.
//
// A learning module is a JSON document an educator can write in a
// plain text editor. It names the lesson, sizes the traffic matrix,
// labels the axes, gives the matrix itself as a list of lists, gives
// a parallel color matrix (grey/blue/red for neutral, internal, and
// adversary space), and optionally attaches one three-choice multiple
// choice question. Lessons are zip files of such documents presented
// sequentially.
//
// The decoder is deliberately lenient about trailing commas — the
// paper's own listings contain them — while validation is strict
// about everything that would corrupt the in-game display.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/matrix"
	"repro/internal/quiz"
)

// Color values used in the traffic_matrix_colors field. The paper's
// pallet materials map 0→grey, 1→blue, 2→red; any other value
// renders as black in-game to flag an authoring mistake. Modules
// that opt into extended colors (the paper's "expanding the range of
// colors and materials" future-work item) additionally get 3→green,
// 4→yellow, 5→purple.
const (
	ColorGrey   = 0 // neutral / greyspace
	ColorBlue   = 1 // internal / blue space
	ColorRed    = 2 // adversary / red space
	ColorGreen  = 3 // extended: allied / partner space
	ColorYellow = 4 // extended: caution / under investigation
	ColorPurple = 5 // extended: honeypots / instrumentation
)

// MaxExtendedColor is the largest code valid under extended colors.
const MaxExtendedColor = ColorPurple

// MaxDisplayPackets is the display guidance from the paper: "through
// testing it has been found that fewer than 15 packets between any
// source and destination displays well." The validator warns above
// it; nothing enforces it, matching "there is no hard limit in code".
const MaxDisplayPackets = 14

// Module is one learning module: the unit an educator authors and a
// student plays. Field names and JSON keys mirror the paper's schema
// exactly.
type Module struct {
	// Name is the lesson title shown in-game.
	Name string `json:"name"`
	// Size is the matrix size written as "NxN", e.g. "10x10". The
	// paper ships 6x6 and 10x10 templates.
	Size string `json:"size"`
	// Author credits the module author.
	Author string `json:"author"`
	// Hint optionally points the student at an explanatory external
	// resource, as the figure captions do.
	Hint string `json:"hint,omitempty"`
	// AxisLabels is the single list of labels applied to both the
	// vertical and horizontal axes. Shorter all-caps labels display
	// best.
	AxisLabels []string `json:"axis_labels"`
	// TrafficMatrix is the packet count between each source (row)
	// and destination (column), as a list of lists "to make it
	// intuitive for an educator to type out exactly what the student
	// will see".
	TrafficMatrix [][]int `json:"traffic_matrix"`
	// TrafficMatrixColors parallels TrafficMatrix with color codes
	// (ColorGrey, ColorBlue, ColorRed; through ColorPurple when
	// ExtendedColors is set).
	TrafficMatrixColors [][]int `json:"traffic_matrix_colors"`
	// ExtendedColors opts the module into the extended color range
	// (codes 3–5): the paper's "expanding the range of colors and
	// materials" future-work item.
	ExtendedColors bool `json:"extended_colors,omitempty"`
	// HasQuestion toggles the question: "the ability to toggle a
	// question on and off allows for a more interactive experience".
	HasQuestion bool `json:"has_question"`
	// Question is the multiple-choice prompt.
	Question string `json:"question,omitempty"`
	// Answers is the answer list; three options is the paper's
	// deliberate recommendation.
	Answers []string `json:"answers,omitempty"`
	// CorrectAnswerElement is the index into Answers of the correct
	// option. Ignored when CorrectAnswerDigest is set.
	CorrectAnswerElement int `json:"correct_answer_element"`
	// AnswerSalt and CorrectAnswerDigest implement the paper's
	// future-work "obfuscating question answers in the module
	// file": when the digest is present it identifies the correct
	// answer by salted hash instead of by index. See
	// Module.ObfuscateAnswer.
	AnswerSalt          string `json:"answer_salt,omitempty"`
	CorrectAnswerDigest string `json:"correct_answer_digest,omitempty"`
}

// ParseSize parses a "NxN" size string, accepting an optional
// "NxM" form for forward compatibility, and returns rows and cols.
func ParseSize(size string) (rows, cols int, err error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(size)), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("core: size %q is not of the form NxN", size)
	}
	rows, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("core: size %q has a non-numeric row count", size)
	}
	cols, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("core: size %q has a non-numeric column count", size)
	}
	if rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("core: size %q must be positive", size)
	}
	return rows, cols, nil
}

// FormatSize renders a square dimension as the module "NxN" string.
func FormatSize(n int) string { return fmt.Sprintf("%dx%d", n, n) }

// Dim returns the square dimension declared by the Size field. It
// returns an error for malformed or non-square sizes.
func (m *Module) Dim() (int, error) {
	rows, cols, err := ParseSize(m.Size)
	if err != nil {
		return 0, err
	}
	if rows != cols {
		return 0, fmt.Errorf("core: size %q is not square", m.Size)
	}
	return rows, nil
}

// Matrix returns the traffic matrix as a matrix.Dense. It returns an
// error for ragged rows.
func (m *Module) Matrix() (*matrix.Dense, error) {
	return matrix.FromRows(m.TrafficMatrix)
}

// Colors returns the color matrix as a matrix.Dense. It returns an
// error for ragged rows.
func (m *Module) Colors() (*matrix.Dense, error) {
	return matrix.FromRows(m.TrafficMatrixColors)
}

// Quiz returns the module's question in quiz form, resolving any
// answer obfuscation. The second return is false when the module has
// no active question or the correct answer cannot be resolved (the
// validator reports the latter as an error).
func (m *Module) Quiz() (quiz.Question, bool) {
	if !m.HasQuestion {
		return quiz.Question{}, false
	}
	correct, err := m.ResolveCorrect()
	if err != nil {
		return quiz.Question{}, false
	}
	return quiz.Question{
		Prompt:  m.Question,
		Answers: append([]string(nil), m.Answers...),
		Correct: correct,
	}, true
}

// TotalPackets returns the total packet count across the matrix.
func (m *Module) TotalPackets() int {
	total := 0
	for _, row := range m.TrafficMatrix {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	c := *m
	c.AxisLabels = append([]string(nil), m.AxisLabels...)
	c.Answers = append([]string(nil), m.Answers...)
	c.TrafficMatrix = cloneGrid(m.TrafficMatrix)
	c.TrafficMatrixColors = cloneGrid(m.TrafficMatrixColors)
	return &c
}

func cloneGrid(g [][]int) [][]int {
	if g == nil {
		return nil
	}
	out := make([][]int, len(g))
	for i, row := range g {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// Equal reports whether two modules are structurally identical.
func (m *Module) Equal(o *Module) bool {
	if m.Name != o.Name || m.Size != o.Size || m.Author != o.Author ||
		m.Hint != o.Hint || m.HasQuestion != o.HasQuestion ||
		m.Question != o.Question || m.CorrectAnswerElement != o.CorrectAnswerElement ||
		m.AnswerSalt != o.AnswerSalt || m.CorrectAnswerDigest != o.CorrectAnswerDigest ||
		m.ExtendedColors != o.ExtendedColors {
		return false
	}
	if !equalStrings(m.AxisLabels, o.AxisLabels) || !equalStrings(m.Answers, o.Answers) {
		return false
	}
	return equalGrid(m.TrafficMatrix, o.TrafficMatrix) &&
		equalGrid(m.TrafficMatrixColors, o.TrafficMatrixColors)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalGrid(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
