package netsim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseSpecBuildsCombinatorTree(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // canonical Name() of the parsed scenario
	}{
		{"ddos", "ddos"},
		{"  background ", "background"},
		{"overlay(background, scan)", "overlay(background,scan)"},
		{"overlay(background, sequence(scan@10s, ddos))", "overlay(background,sequence(scan@10s,ddos))"},
		{"sequence(scan @ 10s, ddos, worm)", "sequence(scan@10s,ddos,worm)"},
		{"dilate(beacon, 2.5)", "dilate(beacon,2.5)"},
		{"amplify(exfil, 4)", "amplify(exfil,4)"},
		{"relabel(scan, ADV1=ADV2, ADV2=ADV1)", "relabel(scan,ADV1=ADV2,ADV2=ADV1)"},
		{"scan@5", "scan@5s"},
		{"overlay(amplify(background,2), dilate(sequence(worm, ddos), 2))",
			"overlay(amplify(background,2),dilate(sequence(worm,ddos),2))"},
	} {
		s, err := ParseSpec(tc.src)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.src, err)
			continue
		}
		if got := s.Name(); got != tc.want {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestParseSpecRoundTrips: a composed scenario's Name() is itself a
// valid spec that parses back to the same name — the algebra's
// display form is its source form.
func TestParseSpecRoundTrips(t *testing.T) {
	src := "overlay(background, sequence(scan@10s, relabel(ddos, ADV1=ADV2, ADV2=ADV1)))"
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(s.Name())
	if err != nil {
		t.Fatalf("Name() %q does not re-parse: %v", s.Name(), err)
	}
	if again.Name() != s.Name() {
		t.Errorf("round trip changed name: %q -> %q", s.Name(), again.Name())
	}
}

// TestParseSpecRunsEndToEnd: the acceptance expression generates on
// the sparse path and stays deterministic across worker counts.
func TestParseSpecRunsEndToEnd(t *testing.T) {
	s, err := ParseSpec("overlay(background, sequence(scan, ddos))")
	if err != nil {
		t.Fatal(err)
	}
	net := StandardNetwork()
	base, stats, err := GenerateCSRArena(context.Background(), nil, s, net, 42, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || base.NNZ() == 0 {
		t.Fatal("composed spec generated no traffic")
	}
	for _, workers := range []int{4, 16} {
		got, _, err := GenerateCSRArena(context.Background(), nil, s, net, 42, workers, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: spec-built scenario not deterministic", workers)
		}
	}
	// The merged ground-truth schedule survives composition: the scan
	// slot then the four DDoS component phases.
	sched, ok := s.(Scheduler)
	if !ok {
		t.Fatal("composed spec does not publish a schedule")
	}
	if phases := sched.Schedule(Params{}); len(phases) != 5 {
		t.Errorf("schedule has %d phases, want 5: %+v", len(phases), phases)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":               "",
		"unknown scenario":    "nope",
		"unknown combinator":  "mixup(background, scan)",
		"one-arm overlay":     "overlay(background)",
		"one-arm sequence":    "sequence(ddos)",
		"trailing garbage":    "ddos extra",
		"unbalanced paren":    "overlay(background, scan",
		"bad dilate factor":   "dilate(scan, 0)",
		"bad amplify count":   "amplify(scan, 1.5)",
		"empty relabel":       "relabel(scan)",
		"duplicate relabel":   "relabel(scan, A=B, A=C)",
		"negative duration":   "scan@0",
		"missing combinator)": "dilate(scan,)",
	} {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("%s: ParseSpec(%q) accepted", name, src)
		}
	}
}

// TestParseSpecNestedUnknownListsCatalog: an unknown name inside an
// expression fails like a bare one, listing every catalog name rather
// than pointing at a CLI an API client does not have, and keeps the
// parser's byte position.
func TestParseSpecNestedUnknownListsCatalog(t *testing.T) {
	_, err := ParseSpec("overlay(background, nope)")
	if err == nil {
		t.Fatal("unknown nested scenario accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "spec at byte") || !strings.Contains(msg, `unknown scenario "nope"; available: `) {
		t.Errorf("error %q lacks the position or the catalog listing", msg)
	}
	for _, s := range Scenarios() {
		if !strings.Contains(msg, s.Name()) {
			t.Errorf("error %q does not list %s", msg, s.Name())
		}
	}
	if strings.Contains(msg, "twsim") {
		t.Errorf("error %q points at the twsim CLI", msg)
	}
}

// TestParseSpecReusesMixtureByExpression: a mixture is reused by
// nesting its expression — the catalog never grows — and a broken
// spec is rejected.
func TestParseSpecReusesMixtureByExpression(t *testing.T) {
	layered, err := ParseSpec("overlay(background, scan)")
	if err != nil {
		t.Fatal(err)
	}
	nested, err := ParseSpec("sequence(" + SpecString(layered) + ", ddos)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := GenerateCSRArena(context.Background(), nil, nested, StandardNetwork(), 1, 2, composeParams); err != nil {
		t.Fatal(err)
	}
	if got := len(Scenarios()); got != 8 {
		t.Errorf("catalog holds %d scenarios after parsing mixtures, want 8", got)
	}
	if _, err := ParseSpec("overlay("); err == nil {
		t.Error("ParseSpec accepted a broken spec")
	}
}

func TestLoadSpecReadsFilesAndInlineText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mix.spec")
	if err := os.WriteFile(path, []byte("overlay(background, scan)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadSpec(path, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Name() != "overlay(background,scan)" {
		t.Errorf("file spec parsed to %q", fromFile.Name())
	}
	inline, err := LoadSpec("overlay(background, scan)", os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if inline.Name() != fromFile.Name() {
		t.Errorf("inline parse %q differs from file parse %q", inline.Name(), fromFile.Name())
	}
	// A bare catalog name stays a catalog lookup even with file
	// reading enabled.
	bare, err := LoadSpec("ddos", os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Name() != "ddos" {
		t.Errorf("bare name parsed to %q", bare.Name())
	}
	// A missing or unreadable file reports the I/O failure, not a
	// bogus parse error on the path itself.
	missing := filepath.Join(dir, "missing.spec")
	_, err = LoadSpec(missing, os.ReadFile)
	if err == nil {
		t.Fatal("missing spec file accepted")
	}
	if !strings.Contains(err.Error(), "missing.spec") || !strings.Contains(err.Error(), "readable") {
		t.Errorf("missing-file error %q does not surface the file problem", err)
	}
}
