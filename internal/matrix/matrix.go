// Package matrix implements the traffic-matrix mathematics that
// underpins Traffic Warehouse.
//
// A network traffic matrix is an adjacency matrix A where A(i,j) = v
// records that source i sent v packets (or bytes) to destination j.
// The paper's lessons use small dense square matrices with a shared
// label list for both axes; the netsim substrate aggregates live
// events into sparse matrices; and the D4M-style associative array
// supports string-keyed sources and destinations. This package
// provides all three representations plus the one-walk Summary the
// pattern classifiers read.
package matrix

import (
	"fmt"
	"strings"
)

// Dense is a row-major dense integer matrix. The zero value is an
// empty 0×0 matrix. Entries are packet counts and are expected to be
// non-negative in lesson content, although the type itself permits any
// int so intermediate computations (differences, products) can use
// it too.
type Dense struct {
	rows, cols int
	data       []int
}

// NewDense returns a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]int, rows*cols)}
}

// NewSquare returns an n×n zero matrix.
func NewSquare(n int) *Dense { return NewDense(n, n) }

// FromRows builds a matrix from a slice of equal-length rows. It
// returns an error when rows are ragged.
func FromRows(rows [][]int) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// MustFromRows is FromRows but panics on ragged input. It is intended
// for literal matrices in module definitions and tests.
func MustFromRows(rows [][]int) *Dense {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// IsSquare reports whether the matrix is square.
func (m *Dense) IsSquare() bool { return m.rows == m.cols }

// index panics with a descriptive message when (i,j) is out of range.
func (m *Dense) index(i, j int) int {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	return i*m.cols + j
}

// At returns the entry at row i, column j.
func (m *Dense) At(i, j int) int { return m.data[m.index(i, j)] }

// Set assigns the entry at row i, column j.
func (m *Dense) Set(i, j, v int) { m.data[m.index(i, j)] = v }

// Add increments the entry at row i, column j by v.
func (m *Dense) Add(i, j, v int) { m.data[m.index(i, j)] += v }

// Fill sets every entry to v.
func (m *Dense) Fill(v int) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Dense) Equal(o *Dense) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// RowSlice returns a copy of row i.
func (m *Dense) RowSlice(i int) []int {
	row := make([]int, m.cols)
	copy(row, m.data[i*m.cols:(i+1)*m.cols])
	return row
}

// ToRows returns the matrix as a freshly allocated slice of rows,
// matching the JSON "list of lists" layout used by learning modules.
func (m *Dense) ToRows() [][]int {
	rows := make([][]int, m.rows)
	for i := range rows {
		rows[i] = m.RowSlice(i)
	}
	return rows
}

// Transpose returns a new matrix with rows and columns exchanged.
// On a traffic matrix this swaps the roles of sources and
// destinations, which the DDoS module uses to model backscatter
// (replies retrace the attack edges in reverse).
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Sum returns the total of all entries: the total packet count.
func (m *Dense) Sum() int {
	total := 0
	for _, v := range m.data {
		total += v
	}
	return total
}

// NNZ returns the number of non-zero entries: the number of active
// source/destination links.
func (m *Dense) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Max returns the maximum entry value, or 0 for an empty matrix.
func (m *Dense) Max() int {
	best := 0
	for i, v := range m.data {
		if i == 0 || v > best {
			best = v
		}
	}
	return best
}

// ColSums returns the in-degree (packets received) of every
// destination.
func (m *Dense) ColSums() []int {
	sums := make([]int, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			sums[j] += m.data[i*m.cols+j]
		}
	}
	return sums
}

// Apply replaces every entry with f(entry).
func (m *Dense) Apply(f func(v int) int) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// Scale multiplies every entry by k.
func (m *Dense) Scale(k int) {
	m.Apply(func(v int) int { return v * k })
}

// AddMatrix returns m + o element-wise. Both the notional-attack and
// DDoS modules compose their final "everything at once" view by
// summing stage matrices.
func (m *Dense) AddMatrix(o *Dense) (*Dense, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("matrix: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i, v := range o.data {
		out.data[i] += v
	}
	return out, nil
}

// Pattern returns a clone with every non-zero entry replaced by 1,
// i.e. the unweighted adjacency structure.
func (m *Dense) Pattern() *Dense {
	p := m.Clone()
	p.Apply(func(v int) int {
		if v != 0 {
			return 1
		}
		return 0
	})
	return p
}

// Trace returns the sum of the diagonal: total self-loop traffic.
func (m *Dense) Trace() int {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	s := 0
	for i := 0; i < n; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// String renders the matrix as aligned rows of integers, one line per
// row, in the "list of lists" spirit of the module format.
func (m *Dense) String() string {
	width := 1
	for _, v := range m.data {
		if n := len(fmt.Sprint(v)); n > width {
			width = n
		}
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*d", width, m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
