package patterns

import (
	"testing"

	"repro/internal/matrix"
)

// Hand-built matrices on the standard 10-host zones (0–3 blue, 4–5
// grey, 6–9 red), mirroring the shapes the netsim catalog draws.

func TestClassifyBehaviorWorm(t *testing.T) {
	m := matrix.NewSquare(10)
	m.Set(6, 0, 3) // red seed infects WS1
	m.Set(0, 1, 3) // cascade doubles through blue space
	m.Set(0, 2, 2)
	m.Set(1, 3, 3)
	got, conf := ClassifyBehaviorOf(m, StandardZones10)
	if got != BehaviorWorm {
		t.Fatalf("worm matrix classified as %v (%.2f)", got, conf)
	}
	if conf != 1.0 {
		t.Errorf("pure worm confidence = %.2f, want 1.0", conf)
	}
}

func TestClassifyBehaviorExfiltration(t *testing.T) {
	m := matrix.NewSquare(10)
	m.Set(0, 5, 200) // WS1 streams to EXT2
	m.Set(5, 0, 9)   // sparse acks back
	got, conf := ClassifyBehaviorOf(m, StandardZones10)
	if got != BehaviorExfiltration {
		t.Fatalf("exfil matrix classified as %v (%.2f)", got, conf)
	}
	if conf < 0.9 {
		t.Errorf("exfil confidence = %.2f, want ≥ 0.9", conf)
	}
	// Symmetric volume is not exfiltration: without the 4× skew the
	// dominant cell no longer qualifies.
	m.Set(5, 0, 150)
	if got, _ := ClassifyBehaviorOf(m, StandardZones10); got == BehaviorExfiltration {
		t.Error("symmetric blue→grey link still classified as exfiltration")
	}
}

func TestClassifyBehaviorFlashCrowd(t *testing.T) {
	m := matrix.NewSquare(10)
	for _, client := range []int{0, 1, 2, 4, 5} { // workstations and externals
		m.Set(client, 3, 8) // pile onto SRV1
		m.Set(3, client, 2) // light replies
	}
	got, conf := ClassifyBehaviorOf(m, StandardZones10)
	if got != BehaviorFlashCrowd {
		t.Fatalf("flash-crowd matrix classified as %v (%.2f)", got, conf)
	}
	if conf != 1.0 {
		t.Errorf("pure flash-crowd confidence = %.2f, want 1.0", conf)
	}
}

func TestClassifyBehaviorBeaconing(t *testing.T) {
	m := matrix.NewSquare(10)
	m.Set(2, 6, 16) // WS3 phones home to ADV1
	m.Set(6, 2, 3)  // occasional tasking reply
	got, conf := ClassifyBehaviorOf(m, StandardZones10)
	if got != BehaviorBeaconing {
		t.Fatalf("beacon matrix classified as %v (%.2f)", got, conf)
	}
	if conf != 1.0 {
		t.Errorf("pure beacon confidence = %.2f, want 1.0", conf)
	}
}

func TestClassifyBehaviorRejectsDegenerate(t *testing.T) {
	empty := matrix.NewSquare(10)
	if got, conf := ClassifyBehaviorOf(empty, StandardZones10); got != BehaviorUnknown || conf != 0 {
		t.Errorf("empty matrix → %v (%.2f), want unknown/0", got, conf)
	}
	// Diagonal-only traffic has no off-diagonal flows to explain.
	diag := matrix.NewSquare(10)
	diag.Set(1, 1, 5)
	if got, _ := ClassifyBehaviorOf(diag, StandardZones10); got != BehaviorUnknown {
		t.Errorf("diagonal-only matrix → %v, want unknown", got)
	}
	// Size mismatch with the zones.
	small := matrix.NewSquare(4)
	small.Set(0, 1, 1)
	if got, _ := ClassifyBehaviorOf(small, StandardZones10); got != BehaviorUnknown {
		t.Errorf("mismatched matrix → %v, want unknown", got)
	}
}

func TestBehaviorNames(t *testing.T) {
	want := map[Behavior]string{
		BehaviorUnknown:      "unknown",
		BehaviorWorm:         "worm propagation",
		BehaviorExfiltration: "data exfiltration",
		BehaviorFlashCrowd:   "flash crowd",
		BehaviorBeaconing:    "C2 beaconing",
		Behavior(99):         "unknown",
	}
	for b, name := range want {
		if b.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(b), b.String(), name)
		}
	}
}
