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

// ClassifyMixtureOf returns m's Summary.Mixture.
func ClassifyMixtureOf(m matrix.Matrix, z Zones) []MixtureComponent {
	return new(Summary).Summarize(m, z, nil).Mixture()
}

// Mixture scores every catalog shape against the matrix and returns
// the components above MinMixtureScore, strongest first (ties break
// in mixtureLabels order). A pure single-scenario matrix reports its
// own shape dominant; an overlay reports each layer it can still
// discern.
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
func (s *Summary) Mixture() []MixtureComponent {
	scores := s.mixtureScores()
	var out []MixtureComponent
	for _, label := range mixtureLabels {
		if sc := scores[label]; sc >= MinMixtureScore {
			out = append(out, MixtureComponent{Label: label, Score: min(sc, 1)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// mixtureScores reads the per-shape fractions off the summary.
func (s *Summary) mixtureScores() map[string]float64 {
	scores := map[string]float64{}
	if !s.zoned || s.NNZ == 0 || s.packets == 0 {
		return scores
	}
	frac := func(v int) float64 { return float64(v) / float64(s.packets) }
	cellFrac := func(c int) float64 { return float64(c) / float64(s.OffDiagNNZ) }

	// background: balanced conversational volume in blue/grey space.
	scores["background"] = frac(s.balancedBlue)

	// scan: every red row probing enough distinct blue targets
	// contributes; light probes score by structure (cells) when the
	// volume fraction undersells them.
	scannedPkts, scannedCells := 0, 0
	for i := 0; i < s.N; i++ {
		if s.Zones.Of(i) == ZoneRed && s.scanCells[i] >= SupernodeFanThreshold {
			scannedPkts += s.scanPackets[i]
			scannedCells += s.scanCells[i]
		}
	}
	scores["scan"] = max(frac(scannedPkts), cellFrac(scannedCells))

	// attack: balanced four-stage zone migration — 4× the weakest
	// stage fraction, so a pure quarter-per-stage campaign scores 1
	// and a mixture missing any stage scores 0.
	weakest := -1.0
	for _, stage := range AttackStages {
		hits := 0
		for _, pair := range attackSignatures[stage] {
			hits += s.ZonePackets[pair[0]][pair[1]]
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
	// from outside blue space, the crowd mostly from inside it. The
	// replies out of the hub to its arms are the crowd's
	// acknowledgements, the flood's backscatter.
	for j := 0; j < s.N; j++ {
		arms := s.arms[j]
		if s.Zones.Of(j) != ZoneBlue || arms < SupernodeFanThreshold {
			continue
		}
		if arms-s.blueArms[j] >= SupernodeFanThreshold {
			flood := frac(s.nonBlueArmVol[j]+s.armReplies[j]) + frac(s.ZonePackets[ZoneRed][ZoneRed])
			scores["ddos"] = max(scores["ddos"], flood)
		}
		if 2*s.blueArms[j] >= arms {
			scores["flashcrowd"] = max(scores["flashcrowd"], frac(s.armVol[j]+s.armReplies[j]))
		}
	}

	// worm: predominantly unreciprocated blue→blue spread plus the
	// red→blue seed.
	if s.blueBlueDsts >= 2 {
		spread := s.ZonePackets[ZoneBlue][ZoneBlue] + s.ZonePackets[ZoneRed][ZoneBlue]
		if 2*s.recipBlueBlue <= spread {
			scores["worm"] = frac(spread)
		}
	}

	// exfil: the dominant blue→grey cell, gated on asymmetry.
	if s.bgVal > 0 && s.bgMirror <= s.bgVal/balanceRatio {
		scores["exfil"] = frac(s.bgVal)
	}

	// beacon: blue→red carrier with at most symmetric tasking back;
	// a light covert channel scores by structure when volume
	// undersells it.
	br := s.ZonePackets[ZoneBlue][ZoneRed]
	rb := s.ZonePackets[ZoneRed][ZoneBlue]
	if br > 0 && rb <= br {
		scores["beacon"] = max(frac(br+rb), cellFrac(s.ZoneCells[ZoneBlue][ZoneRed]))
	}
	return scores
}
