package core

import (
	"strings"
	"testing"
)

// paperExampleJSON reassembles the paper's own Section II listing —
// including its trailing commas — as one document.
const paperExampleJSON = `{
"name":"10x10 Template",
"size":"10x10",
"author":"Chasen Milner",
"axis_labels":[
"WS1","WS2","WS3","SRV1",
"EXT1","EXT2",
"ADV1","ADV2","ADV3","ADV4",
],
"traffic_matrix":[
[1,0,0,0,0,0,0,0,0,2],
[0,1,0,0,0,0,0,0,2,0],
[0,0,1,0,0,0,0,2,0,0],
[0,0,0,1,0,0,2,0,0,0],
[0,0,0,0,1,2,0,0,0,0],
[0,0,0,0,2,1,0,0,0,0],
[0,0,0,2,0,0,1,0,0,0],
[0,0,2,0,0,0,0,1,0,0],
[0,2,0,0,0,0,0,0,1,0],
[2,0,0,0,0,0,0,0,0,1],
],
"traffic_matrix_colors":[
[0,0,0,0,0,0,2,2,2,2],
[0,0,0,0,0,0,2,2,2,2],
[0,0,0,0,0,0,2,2,2,2],
[0,0,0,0,0,0,2,2,2,2],
[0,0,0,0,0,0,0,0,0,0],
[0,0,0,0,0,0,0,0,0,0],
[1,1,1,1,0,0,0,0,0,0],
[1,1,1,1,0,0,0,0,0,0],
[1,1,1,1,0,0,0,0,0,0],
[1,1,1,1,0,0,0,0,0,0],
],
"has_question":true,
"question":"How many packets did WS1 send to ADV4?",
"answers":["0", "1", "2",],
"correct_answer_element":2,
}`

// TestPaperListingParses is the headline lenient-decode test: the
// paper's own JSON (with trailing commas everywhere) must load.
func TestPaperListingParses(t *testing.T) {
	m, err := ParseModule([]byte(paperExampleJSON))
	if err != nil {
		t.Fatalf("the paper's own listing failed to parse: %v", err)
	}
	if m.Name != "10x10 Template" || m.Author != "Chasen Milner" {
		t.Errorf("header fields wrong: %q by %q", m.Name, m.Author)
	}
	if len(m.AxisLabels) != 10 || m.AxisLabels[9] != "ADV4" {
		t.Errorf("labels wrong: %v", m.AxisLabels)
	}
	if issues := m.Validate(); !issues.OK() {
		t.Errorf("paper listing should validate: %s", issues.Errs())
	}
	mat, err := m.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if mat.At(0, 9) != 2 || mat.At(0, 0) != 1 {
		t.Error("matrix content wrong")
	}
}

// TestTemplateMatchesPaperListing: our generated 10×10 template must
// equal the paper's listing field for field.
func TestTemplateMatchesPaperListing(t *testing.T) {
	paper, err := ParseModule([]byte(paperExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	tpl := MustTemplate(10)
	if !tpl.Equal(paper) {
		pm, _ := tpl.Matrix()
		wm, _ := paper.Matrix()
		t.Fatalf("Template(10) differs from the paper's listing.\ngot name=%q labels=%v matrix:\n%v\nwant labels=%v matrix:\n%v",
			tpl.Name, tpl.AxisLabels, pm, paper.AxisLabels, wm)
	}
}

func TestTemplateSizes(t *testing.T) {
	for _, n := range TemplateSizes {
		m, err := Template(n)
		if err != nil {
			t.Fatalf("Template(%d): %v", n, err)
		}
		if issues := m.Validate(); !issues.OK() {
			t.Errorf("Template(%d) invalid:\n%s", n, issues.Errs())
		}
		dim, err := m.Dim()
		if err != nil || dim != n {
			t.Errorf("Template(%d) dim = %d (%v)", n, dim, err)
		}
		if len(m.Answers) != RecommendedAnswerCount {
			t.Errorf("Template(%d) has %d answers", n, len(m.Answers))
		}
	}
	if _, err := Template(1); err == nil {
		t.Error("Template(1) accepted")
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in         string
		rows, cols int
		ok         bool
	}{
		{"10x10", 10, 10, true},
		{"6x6", 6, 6, true},
		{" 8 x 8 ", 8, 8, true},
		{"4X4", 4, 4, true},
		{"3x5", 3, 5, true},
		{"0x0", 0, 0, false},
		{"-2x2", 0, 0, false},
		{"ten", 0, 0, false},
		{"axb", 0, 0, false},
		{"10", 0, 0, false},
	}
	for _, c := range cases {
		rows, cols, err := ParseSize(c.in)
		if c.ok && (err != nil || rows != c.rows || cols != c.cols) {
			t.Errorf("ParseSize(%q) = %d,%d,%v", c.in, rows, cols, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSize(%q) accepted", c.in)
		}
	}
}

func TestDimRejectsNonSquare(t *testing.T) {
	m := &Module{Size: "3x5"}
	if _, err := m.Dim(); err == nil {
		t.Error("non-square size accepted by Dim")
	}
}

func TestQuizExtraction(t *testing.T) {
	m, _ := ParseModule([]byte(paperExampleJSON))
	q, ok := m.Quiz()
	if !ok {
		t.Fatal("question not extracted")
	}
	if q.Prompt != "How many packets did WS1 send to ADV4?" || q.Correct != 2 {
		t.Errorf("quiz = %+v", q)
	}
	m.HasQuestion = false
	if _, ok := m.Quiz(); ok {
		t.Error("disabled question still extracted")
	}
}

func TestTotalPackets(t *testing.T) {
	m, _ := ParseModule([]byte(paperExampleJSON))
	// 10 diagonal ones + 10 anti-diagonal twos.
	if got := m.TotalPackets(); got != 30 {
		t.Errorf("TotalPackets = %d, want 30", got)
	}
}

func TestCloneDeep(t *testing.T) {
	m, _ := ParseModule([]byte(paperExampleJSON))
	c := m.Clone()
	c.TrafficMatrix[0][0] = 99
	c.AxisLabels[0] = "HACK"
	c.Answers[0] = "HACK"
	if m.TrafficMatrix[0][0] == 99 || m.AxisLabels[0] == "HACK" || m.Answers[0] == "HACK" {
		t.Error("Clone shares backing arrays")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not Equal")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base, _ := ParseModule([]byte(paperExampleJSON))
	mutations := []func(*Module){
		func(m *Module) { m.Name = "x" },
		func(m *Module) { m.Size = "6x6" },
		func(m *Module) { m.Author = "x" },
		func(m *Module) { m.Hint = "x" },
		func(m *Module) { m.AxisLabels[3] = "x" },
		func(m *Module) { m.TrafficMatrix[2][2] = 9 },
		func(m *Module) { m.TrafficMatrixColors[2][2] = 9 },
		func(m *Module) { m.HasQuestion = false },
		func(m *Module) { m.Question = "x" },
		func(m *Module) { m.Answers[1] = "x" },
		func(m *Module) { m.CorrectAnswerElement = 0 },
	}
	for i, mutate := range mutations {
		c := base.Clone()
		mutate(c)
		if base.Equal(c) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, _ := ParseModule([]byte(paperExampleJSON))
	data, err := EncodeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	// Encoded output must be strict JSON: no trailing commas.
	if strings.Contains(string(data), ",]") || strings.Contains(string(data), ",}") {
		t.Error("encoder emitted trailing commas")
	}
	back, err := ParseModule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("encode/decode round trip changed the module")
	}
}
