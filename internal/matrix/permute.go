package matrix

import (
	"cmp"
	"fmt"
	"slices"
)

// The permutation kernel. A host relabeling of a traffic
// matrix is the symmetric permutation B = P·A·Pᵀ: row and column i
// both move to perm[i]. The netsim Relabel combinator renames hosts
// at the event level; this kernel is the matrix-level equivalent, and
// the compose tests pin that the two agree cell for cell — the
// algebraic fact that makes relabeled scenarios teachable (the shape
// is invariant, only the axis labels move).

// checkPermutation verifies perm is a bijection on [0,n).
func checkPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("matrix: permutation length %d does not match dimension %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n {
			return fmt.Errorf("matrix: permutation maps %d to %d, outside [0,%d)", i, p, n)
		}
		if seen[p] {
			return fmt.Errorf("matrix: permutation maps two indices to %d", p)
		}
		seen[p] = true
	}
	return nil
}

// PermuteCSR returns the symmetric permutation B = P·A·Pᵀ of a square
// matrix: B[perm[i]][perm[j]] = m[i][j]. perm must be a bijection on
// [0,n). Every input row scatters into its own output row, whose
// columns it re-sorts.
func PermuteCSR(m *CSR, perm []int) (*CSR, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot symmetrically permute %dx%d (not square)", m.rows, m.cols)
	}
	if err := checkPermutation(perm, m.rows); err != nil {
		return nil, err
	}
	n := m.rows
	out := &CSR{
		rows:   n,
		cols:   n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, len(m.vals)),
		vals:   make([]int, len(m.vals)),
	}
	// Output row perm[i] holds exactly row i's entries.
	for i := 0; i < n; i++ {
		out.rowPtr[perm[i]+1] = m.rowPtr[i+1] - m.rowPtr[i]
	}
	for i := 0; i < n; i++ {
		out.rowPtr[i+1] += out.rowPtr[i]
	}
	type cell struct{ col, val int }
	var buf []cell
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			buf = append(buf, cell{col: perm[m.colIdx[k]], val: m.vals[k]})
		}
		// The permuted columns arrive out of order; CSR rows store
		// ascending columns.
		slices.SortFunc(buf, func(a, b cell) int { return cmp.Compare(a.col, b.col) })
		base := out.rowPtr[perm[i]]
		for k, c := range buf {
			out.colIdx[base+k] = c.col
			out.vals[base+k] = c.val
		}
	}
	return out, nil
}

// PermuteDense returns the symmetric permutation B = P·A·Pᵀ of a
// square dense matrix: the reference the sparse kernel is verified
// against.
func PermuteDense(m *Dense, perm []int) (*Dense, error) {
	if !m.IsSquare() {
		return nil, fmt.Errorf("matrix: cannot symmetrically permute %dx%d (not square)", m.Rows(), m.Cols())
	}
	if err := checkPermutation(perm, m.Rows()); err != nil {
		return nil, err
	}
	out := NewSquare(m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				out.Set(perm[i], perm[j], v)
			}
		}
	}
	return out, nil
}
