package matrix

import (
	"reflect"
	"strings"
	"testing"
)

func TestAssocSetGet(t *testing.T) {
	a := NewAssoc()
	a.Set("WS1", "SRV1", 3)
	if a.At("WS1", "SRV1") != 3 || a.At("WS1", "EXT1") != 0 {
		t.Error("Set/At wrong")
	}
}

func TestAssocZeroDeletes(t *testing.T) {
	a := NewAssoc()
	a.Set("a", "b", 2)
	a.Set("a", "b", 0)
	if a.NNZ() != 0 {
		t.Error("zero value kept the cell")
	}
	if len(a.RowKeys()) != 0 {
		t.Error("empty row key kept")
	}
}

func TestAssocAddAccumulates(t *testing.T) {
	a := NewAssoc()
	a.Add("x", "y", 2)
	a.Add("x", "y", 3)
	if a.At("x", "y") != 5 {
		t.Errorf("Add = %d", a.At("x", "y"))
	}
	a.Add("x", "y", -5)
	if a.NNZ() != 0 {
		t.Error("cancelled cell kept")
	}
}

func TestAssocKeysSorted(t *testing.T) {
	a := NewAssoc()
	a.Set("b", "z", 1)
	a.Set("a", "y", 1)
	a.Set("c", "x", 1)
	if got := a.RowKeys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("RowKeys = %v", got)
	}
	if got := a.ColKeys(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("ColKeys = %v", got)
	}
}

func TestAssocRangeOrderDeterministic(t *testing.T) {
	a := NewAssoc()
	a.Set("b", "1", 1)
	a.Set("a", "2", 2)
	a.Set("a", "1", 3)
	var visits []string
	a.Range(func(r, c string, v int) { visits = append(visits, r+c) })
	if !reflect.DeepEqual(visits, []string{"a1", "a2", "b1"}) {
		t.Errorf("Range order = %v", visits)
	}
}

func TestAssocCloneEqualAdd(t *testing.T) {
	a := NewAssoc()
	a.Set("p", "q", 4)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone differs")
	}
	b.Set("p", "q", 5)
	if a.Equal(b) || a.At("p", "q") != 4 {
		t.Error("clone aliases original")
	}
}

func TestAssocToDenseProjection(t *testing.T) {
	a := NewAssoc()
	a.Set("A", "B", 2)
	a.Set("B", "A", 3)
	a.Set("A", "GHOST", 9) // not in the label list
	d, dropped := a.ToDense([]string{"A", "B"})
	if d.At(0, 1) != 2 || d.At(1, 0) != 3 {
		t.Error("projection values wrong")
	}
	if dropped != 9 {
		t.Errorf("dropped = %d, want 9", dropped)
	}
}

func TestAssocString(t *testing.T) {
	a := NewAssoc()
	a.Set("WS1", "SRV1", 3)
	out := a.String()
	if !strings.Contains(out, "WS1") || !strings.Contains(out, "SRV1") || !strings.Contains(out, "3") {
		t.Errorf("String missing content:\n%s", out)
	}
}

func TestAssocSumNNZ(t *testing.T) {
	a := NewAssoc()
	a.Set("a", "b", 2)
	a.Set("c", "d", 3)
	if a.Sum() != 5 || a.NNZ() != 2 {
		t.Errorf("Sum/NNZ = %d/%d", a.Sum(), a.NNZ())
	}
}
