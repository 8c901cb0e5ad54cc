package core

import (
	"strings"
	"testing"
)

// TestExtendedColorsValidation: codes 3–5 warn on a classic module
// but are clean when the module opts into extended colors; codes
// beyond 5 warn in both modes.
func TestExtendedColorsValidation(t *testing.T) {
	for _, code := range []int{ColorGreen, ColorYellow, ColorPurple} {
		m := validModule()
		m.TrafficMatrixColors[0][0] = code
		if len(m.Validate().Warnings()) == 0 {
			t.Errorf("extended code %d on classic module did not warn", code)
		}
		m.ExtendedColors = true
		if issues := m.Validate(); len(issues) != 0 {
			t.Errorf("extended module with code %d warned:\n%s", code, issues)
		}
	}
	m := validModule()
	m.ExtendedColors = true
	m.TrafficMatrixColors[0][0] = MaxExtendedColor + 1
	if len(m.Validate().Warnings()) == 0 {
		t.Error("out-of-range code on extended module did not warn")
	}
}

func TestExtendedColorsSurviveRoundTrip(t *testing.T) {
	m := validModule()
	m.ExtendedColors = true
	m.TrafficMatrixColors[1][1] = ColorPurple
	data, err := EncodeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseModule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ExtendedColors || back.TrafficMatrixColors[1][1] != ColorPurple {
		t.Error("extended colors lost in round trip")
	}
	if !m.Equal(back) {
		t.Error("Equal ignores extended colors")
	}
}

// TestExtendedColorsOmittedWhenOff: classic modules encode without
// the extended_colors key, keeping paper-era files byte-compatible.
func TestExtendedColorsOmittedWhenOff(t *testing.T) {
	data, err := EncodeModule(validModule())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "extended_colors") {
		t.Error("extended_colors emitted for a classic module")
	}
}
