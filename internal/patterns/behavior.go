package patterns

import (
	"repro/internal/matrix"
)

// Behavior classification for the extended netsim catalog: where
// ClassifyTopologyOf, ClassifyAttackStageOf, and ClassifyDDoSOf
// recognize the paper's original module shapes, ClassifyBehaviorOf
// recognizes the live-traffic behaviours the concurrent scenario
// engine adds — worm propagation, data exfiltration, flash crowds,
// and C2 beaconing — from their aggregate traffic matrices.

// Behavior enumerates the extended-catalog traffic behaviours.
type Behavior int

const (
	// BehaviorUnknown is returned when no behaviour matches.
	BehaviorUnknown Behavior = iota
	// BehaviorWorm is a spreading blue→blue cascade from a red seed.
	BehaviorWorm
	// BehaviorExfiltration is one dominant asymmetric blue→grey
	// link.
	BehaviorExfiltration
	// BehaviorFlashCrowd is heavy reciprocated fan-in on a blue hub.
	BehaviorFlashCrowd
	// BehaviorBeaconing is a light blue→red link with at most a
	// trickle of red→blue tasking.
	BehaviorBeaconing
)

// behaviorNames holds display names indexed by Behavior.
var behaviorNames = [...]string{
	"unknown", "worm propagation", "data exfiltration",
	"flash crowd", "C2 beaconing",
}

// String returns the behaviour's display name.
func (b Behavior) String() string {
	if b < 0 || int(b) >= len(behaviorNames) {
		return "unknown"
	}
	return behaviorNames[b]
}

// Behaviors lists the recognizable behaviours.
var Behaviors = []Behavior{
	BehaviorWorm, BehaviorExfiltration, BehaviorFlashCrowd, BehaviorBeaconing,
}

// ClassifyBehaviorOf returns the extended-catalog behaviour whose
// signature best explains the off-diagonal traffic, with the
// explained packet fraction as confidence. Each behaviour gates on
// the structural feature that separates it from its neighbours:
//
//   - flash crowd needs a blue hub column absorbing traffic from at
//     least SupernodeFanThreshold distinct sources (a worm cascade
//     never concentrates on one column);
//   - worm needs predominantly unreciprocated blue→blue traffic
//     spreading to ≥ 2 distinct blue destinations (a flash crowd's
//     blue→blue traffic all lands on the hub, and benign chatter is
//     answered);
//   - exfiltration needs a dominant blue→grey cell at least 4×
//     heavier than its reverse (a flash crowd's blue→grey replies
//     are lighter than the inbound crowd);
//   - beaconing needs blue→red traffic outweighing any red→blue
//     tasking replies.
//
// It reads the matrix through the read-only accessor interface and
// visits only stored entries, so a CSR aggregated by the concurrent
// scenario engine classifies in O(nnz·log deg) with no dense
// materialization.
func ClassifyBehaviorOf(m matrix.Matrix, z Zones) (Behavior, float64) {
	if m.Rows() != m.Cols() || m.Rows() != z.N || m.NNZ() == 0 {
		return BehaviorUnknown, 0
	}
	n := m.Rows()
	total := 0
	zonePackets := map[[2]Zone]int{}
	inPackets := make([]int, n) // off-diagonal inbound packets per column
	inFan := make([]int, n)     // distinct off-diagonal sources per column
	blueBlueDsts := map[int]bool{}
	reciprocated := 0                // reciprocated blue→blue packet volume
	bgRow, bgCol, bgVal := -1, -1, 0 // heaviest blue→grey cell
	matrix.EachStored(m, func(i, j, v int) {
		if i == j {
			return
		}
		zi, zj := z.Of(i), z.Of(j)
		total += v
		zonePackets[[2]Zone{zi, zj}] += v
		inPackets[j] += v
		inFan[j]++
		if zi == ZoneBlue && zj == ZoneBlue {
			blueBlueDsts[j] = true
			if m.At(j, i) != 0 {
				reciprocated += v
			}
		}
		if zi == ZoneBlue && zj == ZoneGrey && v > bgVal {
			bgRow, bgCol, bgVal = i, j, v
		}
	})
	if total == 0 {
		return BehaviorUnknown, 0
	}
	score := map[Behavior]float64{}

	// Flash crowd: the busiest qualifying blue hub, scored by the
	// packets it exchanges (crowd in plus replies out).
	hub := -1
	for j := 0; j < n; j++ {
		if z.Of(j) != ZoneBlue || inFan[j] < SupernodeFanThreshold {
			continue
		}
		if hub == -1 || inPackets[j] > inPackets[hub] {
			hub = j
		}
	}
	if hub >= 0 {
		exchanged := inPackets[hub]
		m.Row(hub, func(j, v int) {
			if j != hub {
				exchanged += v
			}
		})
		score[BehaviorFlashCrowd] = float64(exchanged) / float64(total)
	}

	// Worm: spreading blue→blue plus the red→blue seed. The cascade
	// must be predominantly unreciprocated — benign blue chatter and
	// lateral-movement scripts answer back, an infection push does
	// not.
	if len(blueBlueDsts) >= 2 {
		spread := zonePackets[[2]Zone{ZoneBlue, ZoneBlue}] + zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
		if 2*reciprocated <= spread {
			score[BehaviorWorm] = float64(spread) / float64(total)
		}
	}

	// Exfiltration: the dominant blue→grey cell, gated on ≥4×
	// volume asymmetry against its reverse.
	if bgVal > 0 && m.At(bgCol, bgRow) <= bgVal/4 {
		score[BehaviorExfiltration] = float64(bgVal) / float64(total)
	}

	// Beaconing: blue→red with at most symmetric tasking back.
	br := zonePackets[[2]Zone{ZoneBlue, ZoneRed}]
	rb := zonePackets[[2]Zone{ZoneRed, ZoneBlue}]
	if br > 0 && rb <= br {
		score[BehaviorBeaconing] = float64(br+rb) / float64(total)
	}

	best, bestScore := BehaviorUnknown, 0.0
	for _, b := range Behaviors {
		if s := score[b]; s > bestScore {
			best, bestScore = b, s
		}
	}
	return best, bestScore
}
