package matrix

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomCSR builds a deterministic random sparse matrix with about
// density·rows·cols entries, values in [1, 9].
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *CSR {
	t.Helper()
	c := NewCOO(rows, cols)
	n := int(density * float64(rows) * float64(cols))
	for k := 0; k < n; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), 1+rng.Intn(9))
	}
	return c.ToCSR()
}

func TestCOOCompactSumsDuplicates(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(1, 1, 2)
	c.Add(1, 1, 3)
	c.Add(0, 2, 1)
	c.Compact()
	if c.Len() != 2 {
		t.Fatalf("compacted to %d entries, want 2", c.Len())
	}
	if got := c.ToDense().At(1, 1); got != 5 {
		t.Errorf("duplicate sum = %d, want 5", got)
	}
}

func TestCOOCompactDropsZeroSums(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 4)
	c.Add(0, 0, -4)
	c.Add(1, 1, 1)
	c.Compact()
	if c.Len() != 1 {
		t.Errorf("zero-sum cell kept: %v", c.Entries())
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	c := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Add(2, 0, 1)
}

// TestCOOAddCOOAppendsAndChecksShape: AddCOO appends the other
// builder's triples (a compacted one included) so they sum on
// compaction, leaves the source usable, and refuses a shape mismatch.
func TestCOOAddCOOAppendsAndChecksShape(t *testing.T) {
	src := NewCOO(2, 3)
	src.Add(0, 2, 4)
	src.Add(1, 0, 1)
	src.Add(0, 2, 1)
	src.Compact()
	dst := NewCOO(2, 3)
	dst.Add(0, 2, 1)
	dst.AddCOO(src)
	dst.AddCOO(NewCOO(2, 3))
	if got := dst.Len(); got != 3 {
		t.Fatalf("appended builder holds %d triples, want 3", got)
	}
	if got := dst.Compact().ToDense().At(0, 2); got != 6 {
		t.Errorf("cell (0,2) = %d, want 6", got)
	}
	if got := src.ToDense().At(0, 2); got != 5 {
		t.Errorf("source cell (0,2) = %d after AddCOO, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddCOO accepted a 3x2 source into a 2x3 builder")
		}
	}()
	dst.AddCOO(NewCOO(3, 2))
}

func TestCOODenseRoundTripProperty(t *testing.T) {
	f := func(vals [12]uint8) bool {
		d := NewDense(3, 4)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				d.Set(i, j, int(vals[i*4+j])%5)
			}
		}
		return FromDense(d).ToDense().Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRFromCOO(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(2, 0, 7)
	c.Add(0, 1, 3)
	c.Add(2, 2, 1)
	m := c.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(2, 0) != 7 || m.At(0, 1) != 3 || m.At(1, 1) != 0 {
		t.Error("CSR At wrong")
	}
}

func TestCSRSumsMatchDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		d := NewDense(rows, cols)
		c := NewCOO(rows, cols)
		for k := 0; k < rows*cols/2+1; k++ {
			i, j, v := rng.Intn(rows), rng.Intn(cols), 1+rng.Intn(9)
			d.Add(i, j, v)
			c.Add(i, j, v)
		}
		m := c.ToCSR()
		if !reflect.DeepEqual(m.ColSums(), d.ColSums()) {
			t.Fatalf("trial %d: ColSums differ", trial)
		}
		if m.Sum() != d.Sum() {
			t.Fatalf("trial %d: Sum differs", trial)
		}
		if !m.ToDense().Equal(d) {
			t.Fatalf("trial %d: ToDense differs", trial)
		}
	}
}

func TestCSRToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(t, rng, 12, 12, 0.3)
	back := a.ToCOO().ToCSR()
	if !reflect.DeepEqual(back, a) {
		t.Error("CSR→COO→CSR round trip not identical")
	}
	if !a.ToCOO().ToDense().Equal(a.ToDense()) {
		t.Error("CSR→COO→Dense differs from CSR→Dense")
	}
}

func TestCSRAtBoundsPanic(t *testing.T) {
	m := NewCOO(2, 2).ToCSR()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.At(0, 5)
}

// comparisonCompact is the reference Compact is checked against: a
// comparison sort on (row, col), then duplicate summing and zero
// dropping, written independently of the package's helpers.
func comparisonCompact(es []Entry) []Entry {
	sorted := slices.Clone(es)
	slices.SortFunc(sorted, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	var out []Entry
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return slices.DeleteFunc(out, func(e Entry) bool { return e.Val == 0 })
}

// TestCompactMatchesComparisonSort is the counting sort's property
// test: on random matrices, Compact equals a comparison-sort
// reference, with and without an arena. The shapes cover rows ≠ cols, 0×n and
// 1×1, dimensions far larger than the entry count, negative values,
// and duplicates that cancel to zero.
func TestCompactMatchesComparisonSort(t *testing.T) {
	type shape struct{ rows, cols, entries, vals int }
	shapes := []shape{
		{0, 7, 0, 3},
		{1, 1, 40, 3},
		{3, 11, 200, 4},
		{11, 3, 200, 4},
		{50000, 70000, 30, 5},
		{1, 90000, 25, 2},
		{64, 64, 10000, 3},
		{200, 150, 20000, 6},
	}
	rng := rand.New(rand.NewSource(21))
	arena := NewArena()
	for _, sh := range shapes {
		for trial := 0; trial < 4; trial++ {
			es := make([]Entry, sh.entries)
			for k := range es {
				// Values in [-vals, vals]: duplicates regularly cancel.
				es[k] = Entry{Row: rng.Intn(sh.rows), Col: rng.Intn(sh.cols), Val: rng.Intn(2*sh.vals+1) - sh.vals}
			}
			// A pair that sums to exactly zero on one cell.
			if len(es) > 0 {
				e := es[0]
				es = append(es, Entry{Row: e.Row, Col: e.Col, Val: 9}, Entry{Row: e.Row, Col: e.Col, Val: -9})
			}
			want := comparisonCompact(es)
			for _, a := range []*Arena{nil, arena} {
				label := fmt.Sprintf("%dx%d %d entries trial %d pooled %v", sh.rows, sh.cols, len(es), trial, a != nil)
				c := NewCOOIn(a, sh.rows, sh.cols, len(es))
				c.AddEntries(es)
				c.Compact()
				if !entriesEqual(c.entries, want) {
					t.Fatalf("%s: Compact differs from the comparison-sort reference", label)
				}
				c.Release()
			}
		}
	}
}

// TestCSRToRowsMatchesDense pins the one-allocation row export to the
// dense round trip it replaces, on random matrices with empty rows,
// empty columns and the degenerate shapes, and checks that the rows
// own their storage: writing to them leaves the CSR as it was, and
// appending to one row leaves the next alone.
func TestCSRToRowsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{0, 0}, {1, 1}, {3, 0}, {0, 4}, {7, 7}, {12, 5}, {5, 12}, {48, 48}}
	for _, sh := range shapes {
		for _, density := range []float64{0, 0.05, 0.3} {
			var m *CSR
			if sh[0] == 0 || sh[1] == 0 {
				m = NewCOO(sh[0], sh[1]).ToCSR()
			} else {
				m = randomCSR(t, rng, sh[0], sh[1], density)
			}
			want := m.ToDense().ToRows()
			got := m.ToRows()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d density %g: ToRows = %v, want %v", sh[0], sh[1], density, got, want)
			}
			for _, row := range got {
				for j := range row {
					row[j] = -1
				}
			}
			if again := m.ToDense().ToRows(); !reflect.DeepEqual(again, want) {
				t.Fatalf("%dx%d: writing to the rows changed the CSR", sh[0], sh[1])
			}
			if len(got) > 1 && sh[1] > 0 {
				before := append([]int(nil), got[1]...)
				_ = append(got[0], 99)
				if !reflect.DeepEqual(got[1], before) {
					t.Fatalf("%dx%d: appending to row 0 overwrote row 1", sh[0], sh[1])
				}
			}
		}
	}
}
