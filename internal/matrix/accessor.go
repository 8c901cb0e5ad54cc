package matrix

// Matrix is the read-only accessor contract shared by the dense and
// sparse representations, *Dense and *CSR, its only implementations.
// The analysis layer (Summary, and through it ProfileOf, SupernodesOf
// and the pattern classifiers) takes either, so a traffic matrix
// aggregated by the concurrent scenario engine flows from its COO
// compaction straight into classification as a CSR, never
// materializing the n² cells a large sparse matrix would waste.
//
// The contract mirrors sparse semantics: Row visits only stored
// non-zero entries, in increasing column order, and At returns 0 for
// any cell Row would skip. Summary walks both representations in
// that row-major order, so either yields the same summary, first-seen
// tie-breaks included.
type Matrix interface {
	// Rows returns the number of rows.
	Rows() int
	// Cols returns the number of columns.
	Cols() int
	// At returns the value at (i, j), 0 when the cell is not stored.
	At(i, j int) int
	// NNZ returns the number of non-zero cells.
	NNZ() int
	// Sum returns the total of all cells.
	Sum() int
	// Row calls fn for every non-zero entry (j, v) of row i in
	// increasing column order.
	Row(i int, fn func(j, v int))
}

// Both representations satisfy the accessor contract.
var (
	_ Matrix = (*Dense)(nil)
	_ Matrix = (*CSR)(nil)
)

// Row calls fn for every non-zero entry (j, v) of row i in column
// order, satisfying the Matrix accessor contract.
func (m *Dense) Row(i int, fn func(j, v int)) {
	base := i * m.cols
	for j := 0; j < m.cols; j++ {
		if v := m.data[base+j]; v != 0 {
			fn(j, v)
		}
	}
}
