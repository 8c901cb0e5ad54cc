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

// ClassifyBehaviorOf returns m's Summary.Behavior.
func ClassifyBehaviorOf(m matrix.Matrix, z Zones) (Behavior, float64) {
	return new(Summary).Summarize(m, z, nil).Behavior()
}

// Behavior returns the extended-catalog behaviour whose signature
// best explains the off-diagonal traffic, with the explained packet
// fraction as confidence. Each behaviour gates on the structural
// feature that separates it from its neighbours:
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
func (s *Summary) Behavior() (Behavior, float64) {
	if !s.zoned || s.NNZ == 0 || s.packets == 0 {
		return BehaviorUnknown, 0
	}
	total := s.packets
	var score [len(behaviorNames)]float64

	// Flash crowd: the busiest qualifying blue hub, scored by the
	// packets it exchanges (crowd in plus replies out).
	hub := -1
	for j := 0; j < s.N; j++ {
		if s.Zones.Of(j) != ZoneBlue || s.InFan[j]-s.selfLoop(j) < SupernodeFanThreshold {
			continue
		}
		if hub == -1 || s.offIn(j) > s.offIn(hub) {
			hub = j
		}
	}
	if hub >= 0 {
		exchanged := s.offIn(hub) + s.RowSum[hub] - s.Diag[hub]
		score[BehaviorFlashCrowd] = float64(exchanged) / float64(total)
	}

	// Worm: spreading blue→blue plus the red→blue seed. The cascade
	// must be predominantly unreciprocated — benign blue chatter and
	// lateral-movement scripts answer back, an infection push does
	// not.
	if s.blueBlueDsts >= 2 {
		spread := s.ZonePackets[ZoneBlue][ZoneBlue] + s.ZonePackets[ZoneRed][ZoneBlue]
		if 2*s.recipBlueBlue <= spread {
			score[BehaviorWorm] = float64(spread) / float64(total)
		}
	}

	// Exfiltration: the dominant blue→grey cell, gated on ≥4×
	// volume asymmetry against its reverse.
	if s.bgVal > 0 && s.bgMirror <= s.bgVal/4 {
		score[BehaviorExfiltration] = float64(s.bgVal) / float64(total)
	}

	// Beaconing: blue→red with at most symmetric tasking back.
	br := s.ZonePackets[ZoneBlue][ZoneRed]
	rb := s.ZonePackets[ZoneRed][ZoneBlue]
	if br > 0 && rb <= br {
		score[BehaviorBeaconing] = float64(br+rb) / float64(total)
	}

	best, bestScore := BehaviorUnknown, 0.0
	for _, b := range Behaviors {
		if sc := score[b]; sc > bestScore {
			best, bestScore = b, sc
		}
	}
	return best, bestScore
}
