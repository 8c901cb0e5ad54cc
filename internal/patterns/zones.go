// Package patterns generates and classifies the traffic-matrix
// patterns of every learning module in the paper: the basic traffic
// topologies (Fig 6), the notional-attack stages (Fig 7), the
// security/defense/deterrence concepts (Fig 8), the DDoS components
// (Fig 9), and the graph-theory shapes (Fig 10).
//
// Generators are pure and deterministic; the optional noise and
// composition helpers take an explicit *rand.Rand. Each generator
// family has a matching classifier so tests (and the analyst
// examples) can verify that a rendered pattern is recognizably the
// behaviour it claims to teach.
package patterns

import (
	"fmt"

	"repro/internal/matrix"
)

// Zone labels a region of the address space by trust color, the
// paper's blue/grey/red vocabulary.
type Zone int

const (
	// ZoneBlue is the student's own network (workstations and
	// servers).
	ZoneBlue Zone = iota
	// ZoneGrey is neutral external space.
	ZoneGrey
	// ZoneRed is adversary space.
	ZoneRed
)

// String returns "blue", "grey", or "red".
func (z Zone) String() string {
	switch z {
	case ZoneBlue:
		return "blue"
	case ZoneGrey:
		return "grey"
	case ZoneRed:
		return "red"
	default:
		return fmt.Sprintf("zone(%d)", int(z))
	}
}

// Zones partitions a label axis into contiguous blue, grey, and red
// regions: indices [0,BlueEnd) are blue, [BlueEnd,GreyEnd) grey, and
// [GreyEnd,N) red. The paper's example modules all use this layout.
type Zones struct {
	// N is the axis length.
	N int
	// BlueEnd is the first non-blue index.
	BlueEnd int
	// GreyEnd is the first red index.
	GreyEnd int
}

// StandardZones10 matches the paper's canonical 10-label axis:
// WS1–WS3 and SRV1 are blue, EXT1–EXT2 grey, ADV1–ADV4 red.
var StandardZones10 = Zones{N: 10, BlueEnd: 4, GreyEnd: 6}

// StandardLabels10 is the paper's canonical label list.
var StandardLabels10 = []string{
	"WS1", "WS2", "WS3", "SRV1",
	"EXT1", "EXT2",
	"ADV1", "ADV2", "ADV3", "ADV4",
}

// Valid reports whether the zone boundaries are ordered and in
// range.
func (z Zones) Valid() bool {
	return z.N > 0 && 0 <= z.BlueEnd && z.BlueEnd <= z.GreyEnd && z.GreyEnd <= z.N
}

// Of returns the zone of index i.
func (z Zones) Of(i int) Zone {
	switch {
	case i < z.BlueEnd:
		return ZoneBlue
	case i < z.GreyEnd:
		return ZoneGrey
	default:
		return ZoneRed
	}
}

// Indices returns the index range [start,end) of the given zone.
func (z Zones) Indices(zone Zone) (start, end int) {
	switch zone {
	case ZoneBlue:
		return 0, z.BlueEnd
	case ZoneGrey:
		return z.BlueEnd, z.GreyEnd
	default:
		return z.GreyEnd, z.N
	}
}

// Count returns the number of indices in the zone.
func (z Zones) Count(zone Zone) int {
	s, e := z.Indices(zone)
	return e - s
}

// ColorMatrix builds the module color matrix the paper's examples
// use: cells where blue hosts meet red space are painted red (the
// threat axis), cells where red hosts meet blue space are painted
// blue (the victim axis), everything else grey. This reproduces the
// paper's 10×10 template color listing exactly.
func (z Zones) ColorMatrix() *matrix.Dense {
	c := matrix.NewSquare(z.N)
	for i := 0; i < z.N; i++ {
		for j := 0; j < z.N; j++ {
			src, dst := z.Of(i), z.Of(j)
			switch {
			case src == ZoneBlue && dst == ZoneRed:
				c.Set(i, j, 2)
			case src == ZoneRed && dst == ZoneBlue:
				c.Set(i, j, 1)
			}
		}
	}
	return c
}

// HighlightColors paints every non-zero traffic cell with the given
// color code and leaves the rest grey: the style the topology and
// graph-theory figures use to call out the active pattern.
func HighlightColors(m *matrix.Dense, color int) *matrix.Dense {
	c := matrix.NewDense(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != 0 {
				c.Set(i, j, color)
			}
		}
	}
	return c
}

// ZoneColors paints each non-zero cell by the zone relationship of
// its endpoints: red when either endpoint is red, blue when both are
// blue, grey otherwise. The attack and DDoS figures use this to make
// stages readable at a glance.
func (z Zones) ZoneColors(m *matrix.Dense) *matrix.Dense {
	c := matrix.NewDense(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) == 0 {
				continue
			}
			src, dst := z.Of(i), z.Of(j)
			switch {
			case src == ZoneRed || dst == ZoneRed:
				c.Set(i, j, 2)
			case src == ZoneBlue && dst == ZoneBlue:
				c.Set(i, j, 1)
			default:
				c.Set(i, j, 0)
			}
		}
	}
	return c
}
