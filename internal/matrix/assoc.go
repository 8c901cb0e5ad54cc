package matrix

import (
	"fmt"
	"sort"
	"strings"
)

// Assoc is a D4M-style associative array: a sparse matrix whose rows
// and columns are keyed by strings rather than integers. The paper
// notes that in real networks sources and destinations are "other
// labels … (such as strings) which can be handled with the more
// general associative array abstraction"; netsim uses Assoc to
// aggregate traffic keyed by host name before projecting onto a fixed
// label order for display.
type Assoc struct {
	cells map[string]map[string]int
}

// NewAssoc returns an empty associative array.
func NewAssoc() *Assoc {
	return &Assoc{cells: make(map[string]map[string]int)}
}

// Set assigns the value for (row, col). Setting zero deletes the
// cell so the array stays sparse.
func (a *Assoc) Set(row, col string, v int) {
	if v == 0 {
		if r, ok := a.cells[row]; ok {
			delete(r, col)
			if len(r) == 0 {
				delete(a.cells, row)
			}
		}
		return
	}
	r, ok := a.cells[row]
	if !ok {
		r = make(map[string]int)
		a.cells[row] = r
	}
	r[col] = v
}

// Add increments the value for (row, col) by v.
func (a *Assoc) Add(row, col string, v int) {
	a.Set(row, col, a.At(row, col)+v)
}

// At returns the value for (row, col), zero when absent.
func (a *Assoc) At(row, col string) int {
	return a.cells[row][col]
}

// NNZ returns the number of stored non-zero cells.
func (a *Assoc) NNZ() int {
	n := 0
	for _, r := range a.cells {
		n += len(r)
	}
	return n
}

// Sum returns the total of all cells.
func (a *Assoc) Sum() int {
	s := 0
	for _, r := range a.cells {
		for _, v := range r {
			s += v
		}
	}
	return s
}

// RowKeys returns the sorted set of row keys with at least one cell.
func (a *Assoc) RowKeys() []string {
	keys := make([]string, 0, len(a.cells))
	for k := range a.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ColKeys returns the sorted set of column keys with at least one
// cell.
func (a *Assoc) ColKeys() []string {
	set := make(map[string]struct{})
	for _, r := range a.cells {
		for c := range r {
			set[c] = struct{}{}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Range calls fn for every non-zero cell in sorted (row, col) order.
func (a *Assoc) Range(fn func(row, col string, v int)) {
	for _, r := range a.RowKeys() {
		cols := make([]string, 0, len(a.cells[r]))
		for c := range a.cells[r] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			fn(r, c, a.cells[r][c])
		}
	}
}

// Clone returns a deep copy.
func (a *Assoc) Clone() *Assoc {
	out := NewAssoc()
	a.Range(func(row, col string, v int) { out.Set(row, col, v) })
	return out
}

// Equal reports whether two associative arrays hold identical cells.
func (a *Assoc) Equal(o *Assoc) bool {
	if a.NNZ() != o.NNZ() {
		return false
	}
	equal := true
	a.Range(func(row, col string, v int) {
		if o.At(row, col) != v {
			equal = false
		}
	})
	return equal
}

// ToDense projects the associative array onto the given label order,
// producing the square dense matrix a learning module displays. Cells
// whose row or column key is not in labels are dropped; the returned
// int reports how many packets were dropped that way, so callers can
// detect truncation.
func (a *Assoc) ToDense(labels []string) (*Dense, int) {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	d := NewSquare(len(labels))
	dropped := 0
	a.Range(func(row, col string, v int) {
		i, okRow := index[row]
		j, okCol := index[col]
		if !okRow || !okCol {
			dropped += v
			return
		}
		d.Add(i, j, v)
	})
	return d, dropped
}

// String renders the associative array as a label-bordered grid.
func (a *Assoc) String() string {
	rows, cols := a.RowKeys(), a.ColKeys()
	width := 1
	for _, c := range cols {
		if len(c) > width {
			width = len(c)
		}
	}
	a.Range(func(_, _ string, v int) {
		if n := len(fmt.Sprint(v)); n > width {
			width = n
		}
	})
	rowWidth := 0
	for _, r := range rows {
		if len(r) > rowWidth {
			rowWidth = len(r)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s", rowWidth, "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%*s", rowWidth, r)
		for _, c := range cols {
			if v := a.At(r, c); v != 0 {
				fmt.Fprintf(&b, " %*d", width, v)
			} else {
				fmt.Fprintf(&b, " %*s", width, ".")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
