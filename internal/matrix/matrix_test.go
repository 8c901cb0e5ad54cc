package matrix

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.Sum() != 0 || m.NNZ() != 0 {
		t.Error("new matrix not zeroed")
	}
	if m.IsSquare() {
		t.Error("3x4 reported square")
	}
}

func TestSetGetAdd(t *testing.T) {
	m := NewSquare(3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 3)
	if got := m.At(1, 2); got != 8 {
		t.Errorf("At = %d, want 8", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewSquare(2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]int{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil || m.Rows() != 0 {
		t.Errorf("empty FromRows: %v %v", m, err)
	}
}

func TestToRowsRoundTrip(t *testing.T) {
	rows := [][]int{{1, 2, 3}, {4, 5, 6}}
	m := MustFromRows(rows)
	got := m.ToRows()
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("ToRows = %v", got)
	}
	// Mutating the copy must not touch the matrix.
	got[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("ToRows aliases internal storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := MustFromRows([][]int{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("clone aliases original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestEqualShapes(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	if a.Equal(b) {
		t.Error("different shapes equal")
	}
}

func TestTranspose(t *testing.T) {
	m := MustFromRows([][]int{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 0) != 1 {
		t.Error("transpose values wrong")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(vals [9]int8) bool {
		m := NewSquare(3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m.Set(i, j, int(vals[i*3+j]))
			}
		}
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumNNZMax(t *testing.T) {
	m := MustFromRows([][]int{{0, 2}, {3, 0}})
	if m.Sum() != 5 || m.NNZ() != 2 || m.Max() != 3 {
		t.Errorf("sum/nnz/max = %d/%d/%d", m.Sum(), m.NNZ(), m.Max())
	}
}

func TestRowColSums(t *testing.T) {
	m := MustFromRows([][]int{{1, 2}, {3, 4}})
	if got := m.ColSums(); !reflect.DeepEqual(got, []int{4, 6}) {
		t.Errorf("ColSums = %v", got)
	}
}

func TestRowColSumsMatchSumProperty(t *testing.T) {
	f := func(vals [16]uint8) bool {
		m := NewSquare(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m.Set(i, j, int(vals[i*4+j]))
			}
		}
		cs := 0
		for _, v := range m.ColSums() {
			cs += v
		}
		return cs == m.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyScale(t *testing.T) {
	m := MustFromRows([][]int{{1, 2}, {3, 4}})
	m.Scale(3)
	if m.At(1, 1) != 12 {
		t.Errorf("Scale: %d", m.At(1, 1))
	}
	m.Apply(func(v int) int { return v % 2 })
	if m.At(0, 0) != 1 || m.At(0, 1) != 0 {
		t.Error("Apply wrong")
	}
}

func TestAddMatrix(t *testing.T) {
	a := MustFromRows([][]int{{1, 0}, {0, 2}})
	b := MustFromRows([][]int{{2, 1}, {0, 1}})
	sum, err := a.AddMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 3 || sum.At(1, 1) != 3 {
		t.Error("AddMatrix wrong")
	}
	if _, err := a.AddMatrix(NewDense(3, 3)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestPattern(t *testing.T) {
	m := MustFromRows([][]int{{0, 5}, {7, 0}})
	p := m.Pattern()
	if p.At(0, 1) != 1 || p.At(1, 0) != 1 || p.At(0, 0) != 0 {
		t.Error("Pattern wrong")
	}
}

func TestTrace(t *testing.T) {
	m := MustFromRows([][]int{{1, 9}, {9, 2}})
	if m.Trace() != 3 {
		t.Errorf("Trace = %d", m.Trace())
	}
}

func TestStringAligned(t *testing.T) {
	m := MustFromRows([][]int{{1, 100}, {20, 3}})
	out := m.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != len(lines[1]) {
		t.Errorf("unaligned String output:\n%s", out)
	}
}

func TestMulPlusTimes(t *testing.T) {
	a := MustFromRows([][]int{{1, 2}, {3, 4}})
	b := MustFromRows([][]int{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromRows([][]int{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Errorf("Mul:\n%v", got)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	if _, err := Mul(NewDense(2, 3), NewDense(2, 3)); err == nil {
		t.Error("mismatched shapes accepted")
	}
}

func TestMulIdentityProperty(t *testing.T) {
	id := NewSquare(4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	f := func(vals [16]int8) bool {
		m := NewSquare(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m.Set(i, j, int(vals[i*4+j]))
			}
		}
		left, err1 := Mul(id, m)
		right, err2 := Mul(m, id)
		return err1 == nil && err2 == nil && left.Equal(m) && right.Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleCount(t *testing.T) {
	// A 4-clique contains C(4,3)=4 triangles.
	m := NewSquare(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				m.Set(i, j, 1)
			}
		}
	}
	n, err := TriangleCount(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("4-clique has %d triangles, want 4", n)
	}
}

func TestTriangleCountIgnoresSelfLoops(t *testing.T) {
	m := NewSquare(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	n, err := TriangleCount(m)
	if err != nil || n != 0 {
		t.Errorf("self loops counted as triangles: %d, %v", n, err)
	}
}

func TestTriangleCountNonSquare(t *testing.T) {
	if _, err := TriangleCount(NewDense(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}
