package patterns

import (
	"sort"

	"repro/internal/matrix"
)

// Mixture-aware classification for the composition algebra: where
// ClassifyBehaviorOf and ClassifyTopologyOf each pick ONE best reading,
// real (and composed) traffic layers several shapes at once — a scan
// on top of background chatter, a DDoS following a worm.
// ClassifyMixtureOf scores every catalog shape independently against
// the same matrix and returns all components above a noise floor,
// ranked, so an analyst exercise can ask "which two behaviours are
// mixed here?" and grade the answer mechanically.

// MixtureComponent is one recognized layer of a traffic mixture.
type MixtureComponent struct {
	// Label names the shape using the netsim catalog vocabulary
	// ("background", "scan", "ddos", "attack", "worm", "exfil",
	// "flashcrowd", "beacon").
	Label string
	// Score is the fraction of off-diagonal traffic the shape's
	// signature explains, in [0,1] — by packet volume for the heavy
	// shapes, by active-cell count for the structurally light ones
	// (scan, beacon), whichever is larger. Scores are independent per
	// shape (layers overlap), so they need not sum to 1.
	Score float64
}

// MinMixtureScore is the noise floor: shapes explaining less than
// this fraction of the traffic are not reported as mixture
// components.
const MinMixtureScore = 0.05

// balanceRatio bounds how lopsided a reciprocated link may be and
// still read as conversational: a pair is balanced when each
// direction stays strictly below balanceRatio times the other.
// Request/reply chatter (roughly 2:1) sits inside the bound; floods,
// crowds, and exfiltration run at 3:1 or worse — the paper's own
// DDoS module floods at exactly three times its backscatter — and
// fall outside it.
const balanceRatio = 3

// mixtureLabels fixes the vocabulary and its tie-break order.
var mixtureLabels = []string{
	"background", "scan", "attack", "ddos",
	"worm", "exfil", "flashcrowd", "beacon",
}

// ClassifyMixtureOf scores every catalog shape against the matrix and
// returns the components above MinMixtureScore, strongest first (ties
// break in mixtureLabels order). A pure single-scenario matrix
// reports its own shape dominant; an overlay reports each layer it
// can still discern. It consumes the read-only accessor interface, so
// Dense and CSR classify identically, visiting only stored entries.
//
// Each shape is gated on the structural feature that separates it
// from its neighbours:
//
//   - background: balanced reciprocated chatter touching blue space
//     (blue↔blue, blue↔grey) — floods and exfiltration fail the
//     balance gate even though their victims reply;
//   - scan: unreciprocated red→blue probes from a red source fanning
//     to ≥ SupernodeFanThreshold blue targets (scored by cells as
//     well as volume: probes are light by design);
//   - attack: balanced zone migration — scored by 4× the weakest of
//     the four stage signatures, so a pure campaign scores 1 and a
//     mixture missing any stage scores 0;
//   - ddos: a blue column absorbing unbalanced fan-in from ≥
//     SupernodeFanThreshold non-blue sources, plus its backscatter
//     and any red→red C2 clique;
//   - flashcrowd: a blue column absorbing unbalanced fan-in from ≥
//     SupernodeFanThreshold sources at least half of which are blue —
//     the legitimate-demand tell the flood lacks;
//   - worm: predominantly unreciprocated blue→blue spread to ≥ 2
//     distinct destinations plus the red→blue seed;
//   - exfil: one dominant blue→grey cell ≥ balanceRatio× its
//     reverse;
//   - beacon: light blue→red carrier with at most symmetric tasking
//     replies (scored by cells as well as volume).
func ClassifyMixtureOf(m matrix.Matrix, z Zones) []MixtureComponent {
	scores := mixtureScores(m, z)
	var out []MixtureComponent
	for _, label := range mixtureLabels {
		if s := scores[label]; s >= MinMixtureScore {
			if s > 1 {
				s = 1
			}
			out = append(out, MixtureComponent{Label: label, Score: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// mixtureScores gathers the per-shape fractions in one pass over the
// stored entries (plus At reciprocity lookups and one row re-visit
// per candidate hub column).
func mixtureScores(m matrix.Matrix, z Zones) map[string]float64 {
	scores := map[string]float64{}
	if m.Rows() != m.Cols() || m.Rows() != z.N || m.NNZ() == 0 {
		return scores
	}
	n := m.Rows()

	total := 0      // all off-diagonal packets
	totalCells := 0 // all off-diagonal stored cells
	zonePackets := map[[2]Zone]int{}
	balancedBlue := 0             // balanced chatter volume touching blue space
	scanPackets := make([]int, n) // per red row: unreciprocated red→blue volume
	scanCells := make([]int, n)   // per red row: distinct unreciprocated blue targets
	// unbalanced[j] maps each source pouring unbalanced traffic into
	// column j to that traffic's volume (candidate flood/crowd arms).
	unbalanced := make([]map[int]int, n)
	blueBlueDsts := map[int]bool{}
	recipBlueBlue := 0               // reciprocated blue→blue volume
	bgRow, bgCol, bgVal := -1, -1, 0 // heaviest blue→grey cell

	matrix.EachStored(m, func(i, j, v int) {
		if i == j {
			return
		}
		zi, zj := z.Of(i), z.Of(j)
		total += v
		totalCells++
		zonePackets[[2]Zone{zi, zj}] += v
		r := m.At(j, i)
		balanced := r > 0 && v < balanceRatio*r && r < balanceRatio*v
		if balanced && (zi == ZoneBlue || zj == ZoneBlue) && zi != ZoneRed && zj != ZoneRed {
			balancedBlue += v
		}
		if !balanced && zj == ZoneBlue && v >= balanceRatio*r {
			if unbalanced[j] == nil {
				unbalanced[j] = make(map[int]int)
			}
			unbalanced[j][i] += v
		}
		if zi == ZoneBlue && zj == ZoneBlue {
			blueBlueDsts[j] = true
			if r != 0 {
				recipBlueBlue += v
			}
		}
		if zi == ZoneBlue && zj == ZoneGrey && v > bgVal {
			bgRow, bgCol, bgVal = i, j, v
		}
		if zi == ZoneRed && zj == ZoneBlue && r == 0 {
			scanPackets[i] += v
			scanCells[i]++
		}
	})
	if total == 0 {
		return scores
	}
	frac := func(v int) float64 { return float64(v) / float64(total) }
	cellFrac := func(c int) float64 { return float64(c) / float64(totalCells) }

	// background: balanced conversational volume in blue/grey space.
	scores["background"] = frac(balancedBlue)

	// scan: every red row probing enough distinct blue targets
	// contributes; light probes score by structure (cells) when the
	// volume fraction undersells them.
	scannedPkts, scannedCells := 0, 0
	for i := 0; i < n; i++ {
		if z.Of(i) == ZoneRed && scanCells[i] >= SupernodeFanThreshold {
			scannedPkts += scanPackets[i]
			scannedCells += scanCells[i]
		}
	}
	scores["scan"] = max(frac(scannedPkts), cellFrac(scannedCells))

	// attack: balanced four-stage zone migration — 4× the weakest
	// stage fraction, so a pure quarter-per-stage campaign scores 1
	// and a mixture missing any stage scores 0.
	weakest := -1.0
	for _, stage := range AttackStages {
		hits := 0
		for pair := range attackSignatures[stage] {
			hits += zonePackets[pair]
		}
		if f := frac(hits); weakest < 0 || f < weakest {
			weakest = f
		}
	}
	if weakest > 0 {
		scores["attack"] = 4 * weakest
	}

	// ddos and flashcrowd: both are unbalanced fan-in columns on a
	// blue host; the source mix separates them — the flood arrives
	// from outside blue space, the crowd mostly from inside it.
	for j := 0; j < n; j++ {
		arms := unbalanced[j]
		if z.Of(j) != ZoneBlue || len(arms) < SupernodeFanThreshold {
			continue
		}
		inVol, blueArms, nonBlueArms, nonBlueVol := 0, 0, 0, 0
		for i, v := range arms {
			inVol += v
			if z.Of(i) == ZoneBlue {
				blueArms++
			} else {
				nonBlueArms++
				nonBlueVol += v
			}
		}
		// Replies out of the hub to its unbalanced sources: the
		// crowd's acknowledgements, the flood's backscatter.
		replies := 0
		m.Row(j, func(k, v int) {
			if _, ok := arms[k]; ok {
				replies += v
			}
		})
		if nonBlueArms >= SupernodeFanThreshold {
			flood := frac(nonBlueVol+replies) + frac(zonePackets[[2]Zone{ZoneRed, ZoneRed}])
			if flood > scores["ddos"] {
				scores["ddos"] = flood
			}
		}
		if 2*blueArms >= len(arms) {
			crowd := frac(inVol + replies)
			if crowd > scores["flashcrowd"] {
				scores["flashcrowd"] = crowd
			}
		}
	}

	// worm: predominantly unreciprocated blue→blue spread plus the
	// red→blue seed.
	if len(blueBlueDsts) >= 2 {
		spread := zonePackets[[2]Zone{ZoneBlue, ZoneBlue}] + zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
		if 2*recipBlueBlue <= spread {
			scores["worm"] = frac(spread)
		}
	}

	// exfil: the dominant blue→grey cell, gated on asymmetry.
	if bgVal > 0 && m.At(bgCol, bgRow) <= bgVal/balanceRatio {
		scores["exfil"] = frac(bgVal)
	}

	// beacon: blue→red carrier with at most symmetric tasking back;
	// a light covert channel scores by structure when volume
	// undersells it.
	br := zonePackets[[2]Zone{ZoneBlue, ZoneRed}]
	rb := zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
	if br > 0 && rb <= br {
		beaconCells := 0
		matrix.EachStored(m, func(i, j, _ int) {
			if z.Of(i) == ZoneBlue && z.Of(j) == ZoneRed {
				beaconCells++
			}
		})
		scores["beacon"] = max(frac(br+rb), cellFrac(beaconCells))
	}
	return scores
}
