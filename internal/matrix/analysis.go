package matrix

import (
	"cmp"
	"fmt"
	"slices"
)

// Profile summarizes the structural features of a traffic matrix that
// the paper's learning modules train students to read by eye: how
// many links are active, how concentrated traffic is on single
// sources or destinations, whether the pattern is symmetric, and
// whether hosts talk to themselves. The pattern classifier consumes a
// Profile rather than re-deriving features ad hoc.
type Profile struct {
	// N is the matrix dimension (square matrices only).
	N int
	// NNZ is the number of active (non-zero) links.
	NNZ int
	// Sum is the total packet count.
	Sum int
	// MaxEntry is the largest single-cell packet count.
	MaxEntry int
	// OutFan[i] is the number of distinct destinations source i
	// sends to; InFan[j] is the number of distinct sources that send
	// to destination j.
	OutFan, InFan []int
	// MaxOutFan and MaxInFan are the largest fan-out/fan-in.
	MaxOutFan, MaxInFan int
	// DiagNNZ is the number of non-zero diagonal cells (self loops).
	DiagNNZ int
	// OffDiagNNZ is NNZ minus DiagNNZ.
	OffDiagNNZ int
	// Symmetric reports whether the matrix equals its transpose.
	Symmetric bool
	// ActiveSources and ActiveDests count rows/cols with any
	// traffic.
	ActiveSources, ActiveDests int
	// Reciprocal counts unordered pairs {i,j}, i≠j, linked in both
	// directions.
	Reciprocal int
}

// Summary is what one row-major walk over a square matrix yields:
// the Profile plus the per-vertex sums, the diagonal and the
// reciprocated-partner counts. The supernode and pattern readings
// are reads of it, so a matrix is walked once however many questions
// a lesson asks of it.
type Summary struct {
	Profile
	// RowSum[i] is the traffic out of i; ColSum[j] the traffic into
	// j. Both include the diagonal.
	RowSum, ColSum []int
	// Diag[i] is the self-loop cell (i, i).
	Diag []int
	// Partners[i] counts the vertices j ≠ i that i both sends to and
	// receives from.
	Partners []int
	// buf backs every per-vertex slice plus the walk's row cursors
	// (cleared after it, so a summary depends only on its matrix),
	// kept so a reused Summary allocates nothing.
	buf []int
}

// Summarize fills s from one row-major walk over the stored cells of
// m, reusing the storage of s's previous summary, and returns s.
// visit, when non-nil, sees every stored cell (i, j, v) in that order
// together with r = m(j, i), the cell's mirror. A Dense finds the
// mirror by index; a CSR keeps one cursor per row, which only moves
// forward because the walk asks row j for columns i in increasing
// order, so every mirror costs O(nnz + n) in total with no binary
// search. A non-square matrix yields Profile{N: -1} and no visits.
func (s *Summary) Summarize(m Matrix, visit func(i, j, v, r int)) *Summary {
	if m.Rows() != m.Cols() {
		*s = Summary{Profile: Profile{N: -1}, buf: s.buf}
		return s
	}
	n := m.Rows()
	if cap(s.buf) < 7*n {
		s.buf = make([]int, 7*n)
	}
	buf := s.buf[:7*n]
	clear(buf)
	s.Profile = Profile{
		N: n, NNZ: m.NNZ(), Sum: m.Sum(), Symmetric: true,
		OutFan: buf[0:n:n], InFan: buf[n : 2*n : 2*n],
	}
	s.RowSum, s.ColSum = buf[2*n:3*n:3*n], buf[3*n:4*n:4*n]
	s.Diag, s.Partners = buf[4*n:5*n:5*n], buf[5*n:6*n:6*n]
	cell := func(i, j, v, r int) {
		s.MaxEntry = max(s.MaxEntry, v)
		s.OutFan[i]++
		s.InFan[j]++
		s.RowSum[i] += v
		s.ColSum[j] += v
		if i == j {
			s.DiagNNZ++
			s.Diag[i] = v
		} else {
			if r != v {
				s.Symmetric = false
			}
			if i < j && r != 0 {
				s.Reciprocal++
				s.Partners[i]++
				s.Partners[j]++
			}
		}
		if visit != nil {
			visit(i, j, v, r)
		}
	}
	switch t := m.(type) {
	case *Dense:
		for i := 0; i < n; i++ {
			for j, v := range t.data[i*n : (i+1)*n] {
				if v != 0 {
					cell(i, j, v, t.data[j*n+i])
				}
			}
		}
	case *CSR:
		cursor := buf[6*n:]
		copy(cursor, t.rowPtr[:n])
		for i := 0; i < n; i++ {
			for k := t.rowPtr[i]; k < t.rowPtr[i+1]; k++ {
				j, v := t.colIdx[k], t.vals[k]
				r := v
				if j != i {
					c, end := cursor[j], t.rowPtr[j+1]
					for c < end && t.colIdx[c] < i {
						c++
					}
					cursor[j] = c
					r = 0
					if c < end && t.colIdx[c] == i {
						r = t.vals[c]
					}
				}
				cell(i, j, v, r)
			}
		}
		clear(cursor)
	default:
		panic(fmt.Sprintf("matrix: cannot summarize a %T", m))
	}
	s.OffDiagNNZ = s.NNZ - s.DiagNNZ
	for i := 0; i < n; i++ {
		s.MaxOutFan = max(s.MaxOutFan, s.OutFan[i])
		s.MaxInFan = max(s.MaxInFan, s.InFan[i])
		if s.OutFan[i] > 0 {
			s.ActiveSources++
		}
		if s.InFan[i] > 0 {
			s.ActiveDests++
		}
	}
	return s
}

// ProfileOf computes the structural profile of a square matrix in one
// walk over its stored cells. Non-square matrices yield a zero
// profile with N = -1.
func ProfileOf(m Matrix) Profile { return new(Summary).Summarize(m, nil).Profile }

// HotSpot identifies a vertex with unusually concentrated traffic.
type HotSpot struct {
	// Index is the vertex (row/column) position.
	Index int
	// Fan is the number of distinct peers.
	Fan int
	// Packets is the traffic volume through the vertex in the
	// concentrated direction.
	Packets int
	// Direction is "in" for a destination supernode (many sources →
	// one destination) or "out" for a source supernode.
	Direction string
}

// Supernodes returns the vertices whose fan-in or fan-out is at least
// minFan, sorted by decreasing fan then index: the "supernode"
// concept from the paper's traffic-topologies module. A vertex can
// appear twice, once per direction.
func (s *Summary) Supernodes(minFan int) []HotSpot {
	var hits []HotSpot
	for i := 0; i < s.N; i++ {
		if s.OutFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: s.OutFan[i], Packets: s.RowSum[i], Direction: "out"})
		}
		if s.InFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: s.InFan[i], Packets: s.ColSum[i], Direction: "in"})
		}
	}
	slices.SortFunc(hits, func(a, b HotSpot) int {
		return cmp.Or(cmp.Compare(b.Fan, a.Fan), cmp.Compare(a.Index, b.Index), cmp.Compare(a.Direction, b.Direction))
	})
	return hits
}

// SupernodesOf returns m's Summary.Supernodes.
func SupernodesOf(m Matrix, minFan int) []HotSpot {
	return new(Summary).Summarize(m, nil).Supernodes(minFan)
}
