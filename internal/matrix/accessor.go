package matrix

// Matrix is the read-only accessor contract shared by the dense and
// sparse representations, *Dense and *CSR, its only implementations.
// The analysis layer (Summary, and through it ProfileOf, SupernodesOf
// and the pattern classifiers) takes either, so a traffic matrix
// aggregated by the concurrent scenario engine flows from its COO
// compaction straight into classification as a CSR, never
// materializing the n² cells a large sparse matrix would waste.
//
// The contract mirrors sparse semantics: At returns 0 for any cell a
// CSR does not store. Summary switches on the concrete type and walks
// either representation in row-major order over its non-zero cells,
// so both yield the same summary, first-seen tie-breaks included.
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
}

// Both representations satisfy the accessor contract.
var (
	_ Matrix = (*Dense)(nil)
	_ Matrix = (*CSR)(nil)
)
