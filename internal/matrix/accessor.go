package matrix

// Matrix is the read-only accessor contract shared by the dense and
// sparse representations. The analysis layer (ProfileOf,
// SupernodesOf, IsolatedPairsOf, DegreeHistogramOf, TopLinksOf) and
// the pattern classifiers consume this interface instead of *Dense,
// so a traffic matrix aggregated by the concurrent scenario engine
// can flow from the sharded COO merge straight into classification
// as a CSR — never materializing the n² cells a large sparse matrix
// would waste.
//
// The contract mirrors sparse semantics: Row visits only stored
// non-zero entries, in increasing column order, and At returns 0 for
// any cell Row would skip. Dense satisfies the contract by skipping
// its zero cells during Row; CSR satisfies it natively. Implementors
// must keep Row iteration row-major deterministic — the analysis
// helpers rely on identical visit order across representations to
// produce byte-identical results (first-seen tie-breaks).
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

// EachStored calls fn for every stored non-zero entry (i, j, v) in
// row-major, increasing-column order — the same visit order a
// Row loop produces.
//
// This is the allocation-discipline entry point for full-matrix
// scans: a naive `for i { m.Row(i, func(j, v int) {...}) }` loop
// builds a fresh closure per row (the closure captures the loop
// variable), which on the served per-window classifier path turned
// closure construction into the dominant allocation source. Here the
// concrete representations are walked directly with no closure at
// all, and the interface fallback hoists a single closure out of the
// loop, so one scan costs O(1) allocations regardless of n.
func EachStored(m Matrix, fn func(i, j, v int)) {
	switch t := m.(type) {
	case *CSR:
		for i := 0; i < t.rows; i++ {
			for k := t.rowPtr[i]; k < t.rowPtr[i+1]; k++ {
				fn(i, t.colIdx[k], t.vals[k])
			}
		}
	case *Dense:
		for i := 0; i < t.rows; i++ {
			base := i * t.cols
			for j := 0; j < t.cols; j++ {
				if v := t.data[base+j]; v != 0 {
					fn(i, j, v)
				}
			}
		}
	default:
		i := 0
		row := func(j, v int) { fn(i, j, v) }
		for i = 0; i < m.Rows(); i++ {
			m.Row(i, row)
		}
	}
}
