package patterns

import "repro/internal/matrix"

// Summary is every quantity a lesson reads off a traffic matrix,
// taken in one row-major walk: the matrix.Summary (fans, sums,
// diagonal, reciprocated partners), the zone-to-zone flows, and the
// counters the behaviour, mixture and DDoS readings score. Each
// classifier is a pure read of it, so a served window or aggregate
// is walked once however many readings it carries.
type Summary struct {
	matrix.Summary
	// Zones is the zone split the tallies were taken over.
	Zones Zones
	// ZoneCells[a][b] counts the stored cells from Zone a to Zone b,
	// self loops included; ZonePackets[a][b] sums the off-diagonal
	// packets, kept (like every tally below) only when zoned.
	ZoneCells, ZonePackets [3][3]int

	// zoned reports that the matrix is square over Zones, the gate of
	// every behaviour, topology and mixture reading.
	zoned bool
	// cells counts the stored cells; packets sums the off-diagonal
	// ones.
	cells, packets int
	// ddos[c] counts the stored cells that fit DDoS component c's
	// cast, when cast reports one was given.
	ddos [len(ddosNames)]int
	cast bool
	// balancedBlue is the balanced conversational volume touching
	// blue space (see balanceRatio), recipBlueBlue the blue→blue
	// volume whose reverse is stored, blueBlueDsts the distinct
	// destinations of blue→blue traffic.
	balancedBlue, recipBlueBlue, blueBlueDsts int
	// bgVal is the heaviest blue→grey cell and bgMirror its reverse
	// (the first such cell in row-major order on a tie).
	bgVal, bgMirror int
	// Per blue column j, its unbalanced arms: the sources sending j
	// at least balanceRatio times what j sends back. arms counts
	// them, blueArms the blue ones; armVol is their volume,
	// nonBlueArmVol its non-blue part, armReplies what j sends back.
	// blueSrc counts j's blue sources.
	arms, blueArms, armVol, nonBlueArmVol, armReplies, blueSrc []int
	// Per red row i, its unreciprocated red→blue probes: their volume
	// and their distinct blue targets.
	scanPackets, scanCells []int
	// buf backs the per-vertex slices and roles holds the cast's role
	// bits per vertex; both are reused by the next Summarize.
	buf   []int
	roles []uint8
}

// Role bits of the DDoS cast membership.
const (
	roleC2 uint8 = 1 << iota
	roleBot
	roleVictim
)

// Summarize fills s from one walk over m with zones z, reusing the
// storage of s's previous summary, and returns s. roles, when
// non-nil, is the cast the DDoS reading scores.
func (s *Summary) Summarize(m matrix.Matrix, z Zones, roles *DDoSRoles) *Summary {
	n := m.Rows()
	*s = Summary{
		Summary: s.Summary, Zones: z, buf: s.buf, roles: s.roles,
		zoned: n == m.Cols() && n == z.N, cast: roles != nil,
	}
	if s.zoned {
		if cap(s.buf) < 8*n {
			s.buf = make([]int, 8*n)
		}
		buf := s.buf[:8*n]
		clear(buf)
		per := func(k int) []int { return buf[k*n : (k+1)*n : (k+1)*n] }
		s.arms, s.blueArms, s.armVol, s.nonBlueArmVol = per(0), per(1), per(2), per(3)
		s.armReplies, s.blueSrc, s.scanPackets, s.scanCells = per(4), per(5), per(6), per(7)
	}
	if s.cast {
		if cap(s.roles) < n {
			s.roles = make([]uint8, n)
		}
		s.roles = s.roles[:n]
		clear(s.roles)
		mark := func(v int, bit uint8) {
			if v >= 0 && v < n {
				s.roles[v] |= bit
			}
		}
		for _, v := range roles.C2 {
			mark(v, roleC2)
		}
		for _, v := range roles.Bots {
			mark(v, roleBot)
		}
		mark(roles.Victim, roleVictim)
	}
	s.Summary.Summarize(m, s.add)
	return s
}

// add tallies one stored cell (i, j, v) whose mirror m(j, i) is r.
func (s *Summary) add(i, j, v, r int) {
	zi, zj := s.Zones.Of(i), s.Zones.Of(j)
	s.ZoneCells[zi][zj]++
	s.cells++
	if s.cast {
		ri, rj := s.roles[i], s.roles[j]
		if ri&roleC2 != 0 && rj&roleC2 != 0 {
			s.ddos[DDoSC2]++
		}
		if ri&roleC2 != 0 && rj&roleBot != 0 {
			s.ddos[DDoSBotnet]++
		}
		if ri&roleBot != 0 && rj&roleVictim != 0 {
			s.ddos[DDoSAttack]++
		}
		if ri&roleVictim != 0 && rj&roleBot != 0 {
			s.ddos[DDoSBackscatter]++
		}
	}
	if !s.zoned || i == j {
		return
	}
	s.ZonePackets[zi][zj] += v
	s.packets += v
	balanced := r > 0 && v < balanceRatio*r && r < balanceRatio*v
	if balanced && (zi == ZoneBlue || zj == ZoneBlue) && zi != ZoneRed && zj != ZoneRed {
		s.balancedBlue += v
	}
	if !balanced && zj == ZoneBlue && v >= balanceRatio*r {
		s.arms[j]++
		s.armVol[j] += v
		s.armReplies[j] += r
		if zi == ZoneBlue {
			s.blueArms[j]++
		} else {
			s.nonBlueArmVol[j] += v
		}
	}
	switch {
	case zi == ZoneBlue && zj == ZoneBlue:
		if s.blueSrc[j] == 0 {
			s.blueBlueDsts++
		}
		s.blueSrc[j]++
		if r != 0 {
			s.recipBlueBlue += v
		}
	case zi == ZoneBlue && zj == ZoneGrey && v > s.bgVal:
		s.bgVal, s.bgMirror = v, r
	case zi == ZoneRed && zj == ZoneBlue && r == 0:
		s.scanPackets[i] += v
		s.scanCells[i]++
	}
}

// bestFraction returns the k < n whose hits(k) is the largest
// fraction of the stored cells (the first on a tie), with that
// fraction; every fraction of an empty matrix is 0.
func (s *Summary) bestFraction(n int, hits func(k int) int) (int, float64) {
	best, bestScore := 0, -1.0
	for k := 0; k < n; k++ {
		score := 0.0
		if s.cells > 0 {
			score = float64(hits(k)) / float64(s.cells)
		}
		if score > bestScore {
			best, bestScore = k, score
		}
	}
	return best, bestScore
}

// zoneHits counts the stored cells whose zone pair is in the
// signature.
func (s *Summary) zoneHits(signature [][2]Zone) int {
	hits := 0
	for _, pair := range signature {
		hits += s.ZoneCells[pair[0]][pair[1]]
	}
	return hits
}

// selfLoop is 1 when v has a self loop, 0 otherwise: the cell its
// OutFan and InFan count beside its peers.
func (s *Summary) selfLoop(v int) int {
	if s.Diag[v] != 0 {
		return 1
	}
	return 0
}

// offIn is column j's off-diagonal inbound volume.
func (s *Summary) offIn(j int) int { return s.ColSum[j] - s.Diag[j] }
