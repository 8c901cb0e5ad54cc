package matrix

import (
	"cmp"
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

// ProfileOf computes the structural profile of a square matrix
// through the read-only accessor, visiting only stored non-zeros:
// O(nnz·log deg) on a CSR instead of the dense O(n²) scan.
// Non-square matrices yield a zero profile with N = -1.
func ProfileOf(m Matrix) Profile {
	if m.Rows() != m.Cols() {
		return Profile{N: -1}
	}
	n := m.Rows()
	p := Profile{
		N:         n,
		NNZ:       m.NNZ(),
		Sum:       m.Sum(),
		OutFan:    make([]int, n),
		InFan:     make([]int, n),
		Symmetric: true,
	}
	EachStored(m, func(i, j, v int) {
		if v > p.MaxEntry {
			p.MaxEntry = v
		}
		p.OutFan[i]++
		p.InFan[j]++
		if i == j {
			p.DiagNNZ++
			return
		}
		// One transposed lookup settles both symmetry and (for
		// the upper triangle) reciprocity. Lower-triangle entries
		// only matter for symmetry, so skip their lookup once
		// asymmetry is established.
		if i < j || p.Symmetric {
			r := m.At(j, i)
			if r != v {
				p.Symmetric = false
			}
			if i < j && r != 0 {
				p.Reciprocal++
			}
		}
	})
	p.OffDiagNNZ = p.NNZ - p.DiagNNZ
	for i := 0; i < n; i++ {
		if p.OutFan[i] > p.MaxOutFan {
			p.MaxOutFan = p.OutFan[i]
		}
		if p.InFan[i] > p.MaxInFan {
			p.MaxInFan = p.InFan[i]
		}
		if p.OutFan[i] > 0 {
			p.ActiveSources++
		}
		if p.InFan[i] > 0 {
			p.ActiveDests++
		}
	}
	return p
}

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

// SupernodesOf returns vertices whose fan-in or fan-out is at least
// minFan, sorted by decreasing fan then index: the "supernode"
// concept from the paper's traffic-topologies module. A vertex can
// appear twice, once per direction.
func SupernodesOf(m Matrix, minFan int) []HotSpot {
	p := ProfileOf(m)
	if p.N < 0 {
		return nil
	}
	rowSums := make([]int, p.N)
	colSums := make([]int, p.N)
	EachStored(m, func(i, j, v int) {
		rowSums[i] += v
		colSums[j] += v
	})
	var hits []HotSpot
	for i := 0; i < p.N; i++ {
		if p.OutFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: p.OutFan[i], Packets: rowSums[i], Direction: "out"})
		}
		if p.InFan[i] >= minFan {
			hits = append(hits, HotSpot{Index: i, Fan: p.InFan[i], Packets: colSums[i], Direction: "in"})
		}
	}
	slices.SortFunc(hits, func(a, b HotSpot) int {
		return cmp.Or(cmp.Compare(b.Fan, a.Fan), cmp.Compare(a.Index, b.Index), cmp.Compare(a.Direction, b.Direction))
	})
	return hits
}

// IsolatedPairsOf returns the unordered pairs {i,j} that exchange
// traffic only with each other (their entire fan is the pair), the
// paper's "isolated links" topology. Self loops are ignored. The
// sparse formulation tracks each vertex's unique off-diagonal peer
// in one pass over the stored entries — O(nnz + n) instead of the
// dense O(n³) pair scan.
func IsolatedPairsOf(m Matrix) [][2]int {
	if m.Rows() != m.Cols() {
		return nil
	}
	n := m.Rows()
	const (
		noPeer   = -1
		manyPeer = -2
	)
	// peer[v] is v's sole off-diagonal counterparty (either
	// direction), or manyPeer once a second one appears.
	peer := make([]int, n)
	for i := range peer {
		peer[i] = noPeer
	}
	note := func(v, other int) {
		switch peer[v] {
		case noPeer:
			peer[v] = other
		case other:
		default:
			peer[v] = manyPeer
		}
	}
	EachStored(m, func(i, j, _ int) {
		if i == j {
			return
		}
		note(i, j)
		note(j, i)
	})
	var pairs [][2]int
	for i := 0; i < n; i++ {
		if j := peer[i]; j > i && peer[j] == i {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// DegreeHistogramOf returns counts[k] = number of vertices with
// unweighted total degree k (in-fan + out-fan). The multi-temporal
// analysis literature the paper cites studies exactly these degree
// distributions.
func DegreeHistogramOf(m Matrix) []int {
	p := ProfileOf(m)
	if p.N < 0 {
		return nil
	}
	maxDeg := 0
	degs := make([]int, p.N)
	for i := 0; i < p.N; i++ {
		degs[i] = p.OutFan[i] + p.InFan[i]
		if degs[i] > maxDeg {
			maxDeg = degs[i]
		}
	}
	counts := make([]int, maxDeg+1)
	for _, d := range degs {
		counts[d]++
	}
	return counts
}

// TopLinksOf returns the k heaviest (row, col, value) triples in
// decreasing value order (ties broken by row then col). Useful for
// "which link dominates this matrix?" quiz content.
func TopLinksOf(m Matrix, k int) []Entry {
	all := make([]Entry, 0, m.NNZ())
	EachStored(m, func(i, j, v int) {
		all = append(all, Entry{Row: i, Col: j, Val: v})
	})
	slices.SortFunc(all, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(b.Val, a.Val), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}
