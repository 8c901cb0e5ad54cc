// Package term provides minimal ANSI terminal styling used by the
// renderer and the command-line tools.
//
// The package deliberately supports only the classic 16-color SGR
// palette: the game's color language is grey/blue/red (plus green and
// black accents used by the pallet materials), which maps cleanly onto
// every terminal. Styling can be globally disabled for plain-text
// output (files, tests, pipes).
package term

import (
	"fmt"
	"strings"
)

// Color is a 16-color ANSI palette entry. The zero value is Default,
// which emits no color code.
type Color uint8

// The supported palette. Bright variants occupy the 90–97 SGR range.
const (
	Default Color = iota
	Black
	Red
	Green
	Yellow
	Blue
	Magenta
	Cyan
	White
	BrightBlack
	BrightRed
	BrightGreen
	BrightYellow
	BrightBlue
	BrightMagenta
	BrightCyan
	BrightWhite
)

// fgCode returns the SGR foreground code for c, or 0 if c is Default.
func (c Color) fgCode() int {
	switch {
	case c == Default:
		return 0
	case c <= White:
		return 29 + int(c) // Black=30 … White=37
	default:
		return 81 + int(c) // BrightBlack=90 … BrightWhite=97
	}
}

// bgCode returns the SGR background code for c, or 0 if c is Default.
func (c Color) bgCode() int {
	code := c.fgCode()
	if code == 0 {
		return 0
	}
	return code + 10
}

// String returns the human-readable name of the color.
func (c Color) String() string {
	names := [...]string{
		"default", "black", "red", "green", "yellow", "blue",
		"magenta", "cyan", "white", "bright-black", "bright-red",
		"bright-green", "bright-yellow", "bright-blue",
		"bright-magenta", "bright-cyan", "bright-white",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("color(%d)", uint8(c))
}

// Style describes a foreground/background pair plus the bold flag.
// The zero value renders text unchanged.
type Style struct {
	FG   Color
	BG   Color
	Bold bool
}

// IsZero reports whether the style performs no styling at all.
func (s Style) IsZero() bool { return s == Style{} }

// Sequence returns the ANSI escape sequence that activates the style,
// or "" for the zero style.
func (s Style) Sequence() string {
	if s.IsZero() {
		return ""
	}
	parts := make([]string, 0, 3)
	if s.Bold {
		parts = append(parts, "1")
	}
	if code := s.FG.fgCode(); code != 0 {
		parts = append(parts, fmt.Sprintf("%d", code))
	}
	if code := s.BG.bgCode(); code != 0 {
		parts = append(parts, fmt.Sprintf("%d", code))
	}
	if len(parts) == 0 {
		return ""
	}
	return "\x1b[" + strings.Join(parts, ";") + "m"
}

// Reset is the SGR sequence that clears all styling.
const Reset = "\x1b[0m"

// Apply wraps text in the style's escape sequence and a reset. When
// styling is disabled (see SetEnabled) or the style is zero, text is
// returned unchanged.
func (s Style) Apply(text string) string {
	if !enabled || s.IsZero() {
		return text
	}
	seq := s.Sequence()
	if seq == "" {
		return text
	}
	return seq + text + Reset
}

// enabled controls whether Apply emits escape sequences. Defaults to
// true; tools disable it when writing to files.
var enabled = true

// SetEnabled turns ANSI output on or off globally and returns the
// previous setting so callers can restore it.
func SetEnabled(on bool) (previous bool) {
	previous = enabled
	enabled = on
	return previous
}

// Strip removes all ANSI escape sequences (CSI sequences) from s.
func Strip(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] == 0x1b && i+1 < len(s) && s[i+1] == '[' {
			// Skip to the final byte of the CSI sequence (an
			// ASCII letter in 0x40–0x7e).
			j := i + 2
			for j < len(s) && (s[j] < 0x40 || s[j] > 0x7e) {
				j++
			}
			if j < len(s) {
				j++ // consume the final byte
			}
			i = j
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// VisibleLen returns the number of runes in s after ANSI stripping.
func VisibleLen(s string) int {
	return len([]rune(Strip(s)))
}

// Pad right-pads s with spaces to the given visible width. Strings
// already wider than width are returned unchanged.
func Pad(s string, width int) string {
	n := VisibleLen(s)
	if n >= width {
		return s
	}
	return s + strings.Repeat(" ", width-n)
}
