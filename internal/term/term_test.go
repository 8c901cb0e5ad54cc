package term

import (
	"strings"
	"testing"
)

// restore re-enables ANSI output after a test that disables it.
func restore(t *testing.T) {
	t.Helper()
	prev := SetEnabled(true)
	t.Cleanup(func() { SetEnabled(prev) })
}

func TestColorCodes(t *testing.T) {
	cases := []struct {
		color Color
		fg    int
		bg    int
	}{
		{Default, 0, 0},
		{Black, 30, 40},
		{Red, 31, 41},
		{White, 37, 47},
		{BrightBlack, 90, 100},
		{BrightWhite, 97, 107},
	}
	for _, c := range cases {
		if got := c.color.fgCode(); got != c.fg {
			t.Errorf("%v fgCode = %d, want %d", c.color, got, c.fg)
		}
		if got := c.color.bgCode(); got != c.bg {
			t.Errorf("%v bgCode = %d, want %d", c.color, got, c.bg)
		}
	}
}

func TestColorString(t *testing.T) {
	if Red.String() != "red" || BrightBlue.String() != "bright-blue" {
		t.Errorf("color names wrong: %s %s", Red, BrightBlue)
	}
	if got := Color(200).String(); got != "color(200)" {
		t.Errorf("out-of-range color name = %q", got)
	}
}

func TestStyleApply(t *testing.T) {
	restore(t)
	s := Style{FG: Red, Bold: true}
	out := s.Apply("hi")
	if !strings.HasPrefix(out, "\x1b[1;31m") || !strings.HasSuffix(out, Reset) {
		t.Errorf("styled output = %q", out)
	}
	if !strings.Contains(out, "hi") {
		t.Errorf("styled output lost text: %q", out)
	}
}

func TestStyleZeroIsNoop(t *testing.T) {
	restore(t)
	if got := (Style{}).Apply("plain"); got != "plain" {
		t.Errorf("zero style changed text: %q", got)
	}
}

func TestStyleDisabled(t *testing.T) {
	restore(t)
	SetEnabled(false)
	s := Style{FG: Red, BG: Blue, Bold: true}
	if got := s.Apply("x"); got != "x" {
		t.Errorf("disabled styling still emitted codes: %q", got)
	}
}

func TestSetEnabledReturnsPrevious(t *testing.T) {
	restore(t)
	if prev := SetEnabled(false); !prev {
		t.Error("expected previous=true")
	}
	if prev := SetEnabled(true); prev {
		t.Error("expected previous=false")
	}
}

func TestStripRemovesSequences(t *testing.T) {
	restore(t)
	styled := Style{FG: Green, BG: Black}.Apply("abc") + " plain " + Style{Bold: true}.Apply("def")
	if got := Strip(styled); got != "abc plain def" {
		t.Errorf("Strip = %q", got)
	}
}

func TestStripPlainUnchanged(t *testing.T) {
	if got := Strip("no codes here"); got != "no codes here" {
		t.Errorf("Strip altered plain text: %q", got)
	}
}

func TestStripTruncatedSequence(t *testing.T) {
	// A dangling escape at end of string must not loop or panic.
	if got := Strip("abc\x1b["); got != "abc" {
		t.Errorf("Strip dangling = %q", got)
	}
}

func TestVisibleLen(t *testing.T) {
	restore(t)
	s := Style{FG: Red}.Apply("héllo")
	if got := VisibleLen(s); got != 5 {
		t.Errorf("VisibleLen = %d, want 5 (unicode-aware)", got)
	}
}

func TestPadding(t *testing.T) {
	if got := Pad("ab", 5); got != "ab   " {
		t.Errorf("Pad = %q", got)
	}
	// Strings wider than the target come back unchanged.
	if got := Pad("abcdef", 3); got != "abcdef" {
		t.Errorf("wide string changed: %q", got)
	}
}

func TestTableLayout(t *testing.T) {
	restore(t)
	tab := NewTable("Name", "Value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("table has %d lines, want 6:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "Name") || !strings.Contains(lines[1], "Value") {
		t.Errorf("header row wrong: %q", lines[1])
	}
	// All lines share the same visible width.
	width := VisibleLen(lines[0])
	for i, l := range lines {
		if VisibleLen(l) != width {
			t.Errorf("line %d width %d != %d", i, VisibleLen(l), width)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("A")
	tab.AddRow("1", "2", "3")
	out := tab.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra columns dropped:\n%s", out)
	}
}

func TestTableStyledCellsAlign(t *testing.T) {
	restore(t)
	tab := NewTable("H")
	tab.AddRow(Style{FG: Red}.Apply("xx"))
	tab.AddRow("yyyy")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	w := VisibleLen(lines[0])
	for i, l := range lines {
		if VisibleLen(l) != w {
			t.Errorf("styled cell broke alignment on line %d", i)
		}
	}
}
