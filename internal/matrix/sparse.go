package matrix

import (
	"fmt"
	"slices"
	"sort"
)

// Entry is a single (row, col, value) triple in a sparse matrix.
type Entry struct {
	Row, Col, Val int
}

// COO is a coordinate-format sparse matrix builder. Duplicate
// coordinates are permitted and sum together on compaction, which is
// exactly the semantics of streaming packet events into a traffic
// matrix: each event contributes its packet count to its (src,dst)
// cell. The netsim substrate builds COO matrices from event streams.
type COO struct {
	rows, cols int
	entries    []Entry
	// compacted records that entries are row-major sorted, duplicate
	// free, and zero free, letting Compact (and therefore ToCSR on a
	// compacted matrix) skip the counting sort and dedup passes.
	compacted bool
	// arena, when non-nil, owns the builder storage: Release files
	// entries back onto its free-list instead of leaving them to the
	// GC. released marks the storage gone — further use panics, so a
	// lifecycle bug fails loudly instead of corrupting a pooled slab.
	arena    *Arena
	released bool
}

// NewCOO returns an empty rows×cols COO matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// NewCOOIn returns an empty rows×cols COO matrix whose triple
// storage comes from the arena (capHint pre-sizes the slab request).
// A nil arena makes it equivalent to NewCOO. The caller must Release
// the matrix once its triples are provably unreachable.
func NewCOOIn(a *Arena, rows, cols, capHint int) *COO {
	c := NewCOO(rows, cols)
	c.arena = a
	if a != nil {
		c.entries = a.GetEntries(capHint)
	}
	return c
}

// Release returns the builder storage to the arena and marks the
// matrix dead: any later Add, Compact, Entries, or ToCSR panics.
// Release is idempotent and a no-op for arena-less matrices' storage
// (the slab simply stays with the GC), so cleanup paths can call it
// unconditionally.
func (c *COO) Release() {
	if c.released {
		return
	}
	c.released = true
	if c.arena != nil {
		c.arena.PutEntries(c.entries)
	}
	c.entries = nil
	c.compacted = false
}

// checkLive panics on use-after-Release — the loud failure that
// keeps an aliased pooled slab from silently corrupting a matrix.
func (c *COO) checkLive() {
	if c.released {
		panic("matrix: use of released COO")
	}
}

// Rows returns the number of rows.
func (c *COO) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *COO) Cols() int { return c.cols }

// Len returns the number of stored triples (before duplicate
// compaction).
func (c *COO) Len() int { return len(c.entries) }

// Add appends the triple (i, j, v). Panics when the coordinate is out
// of range, matching Dense's behaviour.
func (c *COO) Add(i, j, v int) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.checkLive()
	c.entries = append(c.entries, Entry{Row: i, Col: j, Val: v})
	c.compacted = false
}

// AddEntries appends a batch of triples, with Add's range check on
// every coordinate.
func (c *COO) AddEntries(es []Entry) {
	c.checkLive()
	for _, e := range es {
		if e.Row < 0 || e.Row >= c.rows || e.Col < 0 || e.Col >= c.cols {
			panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", e.Row, e.Col, c.rows, c.cols))
		}
	}
	if len(es) == 0 {
		return
	}
	c.entries = append(c.entries, es...)
	c.compacted = false
}

// AddCOO appends every stored triple of o, whose dimensions must
// match the receiver's. o's triples were range-checked when they were
// added, so they are copied once, with no per-triple check and no
// intermediate slice.
func (c *COO) AddCOO(o *COO) {
	c.checkLive()
	o.checkLive()
	if o.rows != c.rows || o.cols != c.cols {
		panic(fmt.Sprintf("matrix: AddCOO dimension mismatch %dx%d vs %dx%d", c.rows, c.cols, o.rows, o.cols))
	}
	if len(o.entries) == 0 {
		return
	}
	c.entries = append(c.entries, o.entries...)
	c.compacted = false
}

// AddCSR appends every stored entry of m, whose dimensions must
// match the receiver's.
func (c *COO) AddCSR(m *CSR) {
	c.checkLive()
	if m.rows != c.rows || m.cols != c.cols {
		panic(fmt.Sprintf("matrix: AddCSR dimension mismatch %dx%d vs %dx%d", c.rows, c.cols, m.rows, m.cols))
	}
	if len(m.vals) == 0 {
		return
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c.entries = append(c.entries, Entry{Row: i, Col: m.colIdx[k], Val: m.vals[k]})
		}
	}
	c.compacted = false
}

// Compact sorts the triples in row-major order and sums duplicates
// in place, dropping resulting zeros. It returns the receiver for
// chaining. The sort is a linear-time counting sort over the known
// dimensions (see countSort); its scratch comes from the matrix's
// arena when it has one.
func (c *COO) Compact() *COO {
	c.checkLive()
	if c.compacted || len(c.entries) == 0 {
		return c
	}
	countSort(c.arena, c.entries, c.rows, c.cols)
	c.entries = dedupSorted(c.entries)
	c.compacted = true
	return c
}

// dedupSorted sums duplicate coordinates in a sorted slice in place
// and drops zero-sum cells.
func dedupSorted(es []Entry) []Entry {
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return slices.DeleteFunc(out, func(e Entry) bool { return e.Val == 0 })
}

// countSort orders es row-major in O(len(es) + rows + cols): a stable
// counting pass by column into a scratch slab, then a stable counting
// pass by row back into es, which keeps each row's columns ascending.
// Duplicate coordinates end up adjacent in input order; Entry.Val is
// an int, so the order dedupSorted sums them in cannot change a bit.
// The scratch slab and the count array come from the arena (nil
// allocates fresh) and go back before it returns.
func countSort(a *Arena, es []Entry, rows, cols int) {
	if len(es) < 2 {
		return
	}
	tmp := a.scratchEntries(len(es))
	counts := a.zeroCounts(max(rows, cols) + 1)
	countPass(tmp, es, counts[:cols+1], false)
	clear(counts)
	countPass(es, tmp, counts[:rows+1], true)
	a.putCounts(counts)
	a.PutEntries(tmp)
}

// countPass stably scatters src into dst ordered by row (byRow) or
// column; counts must be zeroed and one longer than that dimension.
func countPass(dst, src []Entry, counts []int, byRow bool) {
	if byRow {
		for _, e := range src {
			counts[e.Row+1]++
		}
	} else {
		for _, e := range src {
			counts[e.Col+1]++
		}
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	if byRow {
		for _, e := range src {
			dst[counts[e.Row]] = e
			counts[e.Row]++
		}
	} else {
		for _, e := range src {
			dst[counts[e.Col]] = e
			counts[e.Col]++
		}
	}
}

// Entries returns a copy of the stored triples.
func (c *COO) Entries() []Entry {
	c.checkLive()
	out := make([]Entry, len(c.entries))
	copy(out, c.entries)
	return out
}

// ToDense materializes the COO matrix as a Dense matrix, summing
// duplicates.
func (c *COO) ToDense() *Dense {
	d := NewDense(c.rows, c.cols)
	for _, e := range c.entries {
		d.Add(e.Row, e.Col, e.Val)
	}
	return d
}

// FromDense converts a dense matrix to COO, keeping only non-zero
// entries.
func FromDense(d *Dense) *COO {
	c := NewCOO(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	// The row-major scan emits unique sorted non-zero coordinates.
	c.compacted = true
	return c
}

// CSR is a compressed-sparse-row matrix: the standard read-optimized
// layout for row-oriented traversal (out-edges of each source).
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []int
}

// ToCSR compacts the COO matrix and converts it to CSR. The CSR's
// arrays are always freshly allocated — never arena storage — because
// CSR results outlive the request that built them (the LRU cache and
// stream frames alias them); see the ownership rules in arena.go.
func (c *COO) ToCSR() *CSR {
	c.Compact()
	m := &CSR{
		rows:   c.rows,
		cols:   c.cols,
		rowPtr: make([]int, c.rows+1),
		colIdx: make([]int, len(c.entries)),
		vals:   make([]int, len(c.entries)),
	}
	for _, e := range c.entries {
		m.rowPtr[e.Row+1]++
	}
	for i := 0; i < c.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	// Entries are already row-major sorted after Compact, so a single
	// pass fills colIdx/vals in order.
	for k, e := range c.entries {
		m.colIdx[k] = e.Col
		m.vals[k] = e.Val
	}
	return m
}

// ToCOO converts the CSR matrix back to a compacted COO: the exact
// inverse of COO.ToCSR, so COO↔CSR round trips are lossless.
func (m *CSR) ToCOO() *COO {
	c := NewCOO(m.rows, m.cols)
	c.entries = make([]Entry, 0, len(m.vals))
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c.entries = append(c.entries, Entry{Row: i, Col: m.colIdx[k], Val: m.vals[k]})
		}
	}
	c.compacted = true
	return c
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the value at (i, j) using binary search within the row.
func (m *CSR) At(i, j int) int {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// ColSums returns the in-degree of every destination.
func (m *CSR) ColSums() []int {
	sums := make([]int, m.cols)
	for k, j := range m.colIdx {
		sums[j] += m.vals[k]
	}
	return sums
}

// Sum returns the total of all stored values.
func (m *CSR) Sum() int {
	s := 0
	for _, v := range m.vals {
		s += v
	}
	return s
}

// ToDense materializes the CSR matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// ToRows returns the matrix as freshly allocated dense rows, equal
// to ToDense().ToRows() but in one backing allocation (plus the row
// headers) and without the intermediate dense copy. Each row is
// capped at its own length, so appending to one row cannot overwrite
// the next.
func (m *CSR) ToRows() [][]int {
	cells := make([]int, m.rows*m.cols)
	rows := make([][]int, m.rows)
	for i := range rows {
		row := cells[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			row[m.colIdx[k]] = m.vals[k]
		}
		rows[i] = row
	}
	return rows
}
