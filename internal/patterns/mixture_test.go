package patterns

import (
	"reflect"
	"testing"

	"repro/internal/matrix"
)

// mixtureLabelsOf projects the ranked components onto their labels.
func mixtureLabelsOf(components []MixtureComponent) []string {
	out := make([]string, len(components))
	for i, c := range components {
		out[i] = c.Label
	}
	return out
}

// hasComponent reports whether the label appears in the mixture.
func hasComponent(components []MixtureComponent, label string) bool {
	for _, c := range components {
		if c.Label == label {
			return true
		}
	}
	return false
}

func TestClassifyMixturePureDDoSCampaign(t *testing.T) {
	m, err := DDoSCampaign(StandardZones10, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := ClassifyMixtureOf(m, StandardZones10)
	if len(got) == 0 || got[0].Label != "ddos" {
		t.Fatalf("DDoS campaign classified as %v, want ddos dominant", got)
	}
}

// TestClassifyMixtureLayeredCampaign hand-builds a mixture the way an
// educator would: the paper's DDoS campaign with an unreciprocated
// scan row layered on top. Both layers must be reported.
func TestClassifyMixtureLayeredCampaign(t *testing.T) {
	m, err := DDoSCampaign(StandardZones10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ADV1 (index 6) probes every blue host once; the victim's
	// backscatter never reaches it, so the row stays unreciprocated.
	for j := 0; j < StandardZones10.BlueEnd; j++ {
		if m.At(6, j) == 0 && m.At(j, 6) == 0 {
			m.Set(6, j, 1)
		}
	}
	got := ClassifyMixtureOf(m, StandardZones10)
	if !hasComponent(got, "ddos") || !hasComponent(got, "scan") {
		t.Fatalf("layered campaign classified as %v, want ddos and scan", got)
	}
	if got[0].Label != "ddos" {
		t.Errorf("dominant component = %v, want ddos (the flood carries the volume)", got[0])
	}
}

// TestClassifyMixtureBeaconUnderChatter: a light periodic blue→red
// carrier must survive balanced chatter thanks to cell-fraction
// scoring.
func TestClassifyMixtureBeaconUnderChatter(t *testing.T) {
	m := matrix.NewSquare(10)
	// Balanced workstation↔server chatter.
	for _, ws := range []int{0, 1, 2} {
		m.Set(ws, 3, 40)
		m.Set(3, ws, 20)
	}
	// The beacon: WS3 (index 2) phones ADV1 (index 6), light, with a
	// lighter tasking reply.
	m.Set(2, 6, 16)
	m.Set(6, 2, 3)
	got := ClassifyMixtureOf(m, StandardZones10)
	if !hasComponent(got, "background") || !hasComponent(got, "beacon") {
		t.Fatalf("mixture = %v, want background and beacon", got)
	}
	if got[0].Label != "background" {
		t.Errorf("dominant = %v, want background", got[0])
	}
}

// TestClassifyMixtureSeparatesFloodFromCrowd: the same fan-in shape
// reads as ddos from non-blue sources and flashcrowd from a
// blue-majority crowd.
func TestClassifyMixtureSeparatesFloodFromCrowd(t *testing.T) {
	flood := matrix.NewSquare(10)
	for _, bot := range []int{4, 5, 7, 8, 9} {
		flood.Set(bot, 3, 60)
		flood.Set(3, bot, 2) // backscatter
	}
	got := ClassifyMixtureOf(flood, StandardZones10)
	if len(got) == 0 || got[0].Label != "ddos" {
		t.Fatalf("flood classified as %v, want ddos dominant", got)
	}
	if hasComponent(got, "flashcrowd") {
		t.Errorf("non-blue flood also read as flashcrowd: %v", got)
	}

	crowd := matrix.NewSquare(10)
	for _, client := range []int{0, 1, 2, 4, 5} {
		crowd.Set(client, 3, 60)
		crowd.Set(3, client, 4) // acknowledgements
	}
	got = ClassifyMixtureOf(crowd, StandardZones10)
	if len(got) == 0 || got[0].Label != "flashcrowd" {
		t.Fatalf("crowd classified as %v, want flashcrowd dominant", got)
	}
	if hasComponent(got, "ddos") {
		t.Errorf("blue-majority crowd also read as ddos: %v", got)
	}
}

// TestClassifyMixtureExfilNotBackground: a heavy asymmetric
// blue→grey link with acknowledgements is exfiltration, not chatter.
func TestClassifyMixtureExfilNotBackground(t *testing.T) {
	m := matrix.NewSquare(10)
	m.Set(0, 5, 200)
	m.Set(5, 0, 10) // sparse acks: far below the balance ratio
	got := ClassifyMixtureOf(m, StandardZones10)
	if len(got) == 0 || got[0].Label != "exfil" {
		t.Fatalf("classified as %v, want exfil dominant", got)
	}
	if hasComponent(got, "background") {
		t.Errorf("asymmetric exfil also read as background: %v", got)
	}
}

// TestClassifyMixtureOfDenseCSRParity: identical readings through
// both representations of the accessor interface.
func TestClassifyMixtureOfDenseCSRParity(t *testing.T) {
	m, err := DDoSCampaign(StandardZones10, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 3, 12)
	m.Set(3, 0, 8)
	csr := matrix.FromDense(m).ToCSR()
	dense := ClassifyMixtureOf(m, StandardZones10)
	sparse := ClassifyMixtureOf(csr, StandardZones10)
	if !reflect.DeepEqual(dense, sparse) {
		t.Errorf("Dense %v and CSR %v mixtures differ", dense, sparse)
	}
}

func TestClassifyMixtureDegenerateInputs(t *testing.T) {
	if got := ClassifyMixtureOf(matrix.NewSquare(10), StandardZones10); len(got) != 0 {
		t.Errorf("empty matrix produced components %v", got)
	}
	if got := ClassifyMixtureOf(matrix.NewSquare(4), StandardZones10); len(got) != 0 {
		t.Errorf("zone-mismatched matrix produced components %v", got)
	}
	diag := matrix.NewSquare(10)
	diag.Set(2, 2, 9)
	if got := ClassifyMixtureOf(diag, StandardZones10); len(got) != 0 {
		t.Errorf("diagonal-only matrix produced components %v", got)
	}
}
