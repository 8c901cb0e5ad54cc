package matrix

import (
	"reflect"
	"testing"
)

func TestProfileBasics(t *testing.T) {
	m := MustFromRows([][]int{
		{1, 2, 0},
		{0, 0, 3},
		{4, 0, 0},
	})
	p := ProfileOf(m)
	if p.N != 3 || p.NNZ != 4 || p.Sum != 10 || p.MaxEntry != 4 {
		t.Errorf("profile basics wrong: %+v", p)
	}
	if p.DiagNNZ != 1 || p.OffDiagNNZ != 3 {
		t.Errorf("diag split wrong: %+v", p)
	}
	if !reflect.DeepEqual(p.OutFan, []int{2, 1, 1}) {
		t.Errorf("OutFan = %v", p.OutFan)
	}
	if !reflect.DeepEqual(p.InFan, []int{2, 1, 1}) {
		t.Errorf("InFan = %v", p.InFan)
	}
	if p.Symmetric {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestProfileReciprocal(t *testing.T) {
	m := MustFromRows([][]int{
		{0, 1, 1},
		{1, 0, 0},
		{0, 0, 0},
	})
	p := ProfileOf(m)
	if p.Reciprocal != 1 {
		t.Errorf("Reciprocal = %d, want 1 (only 0↔1)", p.Reciprocal)
	}
}

func TestProfileNonSquare(t *testing.T) {
	if p := ProfileOf(NewDense(2, 3)); p.N != -1 {
		t.Error("non-square profile should report N=-1")
	}
}

func TestSupernodesDetection(t *testing.T) {
	// Vertex 0 sends to 1,2,3 → out supernode; 3 receives from 0
	// only.
	m := NewSquare(4)
	m.Set(0, 1, 1)
	m.Set(0, 2, 1)
	m.Set(0, 3, 1)
	hubs := SupernodesOf(m, 3)
	if len(hubs) != 1 {
		t.Fatalf("Supernodes = %v", hubs)
	}
	if hubs[0].Index != 0 || hubs[0].Direction != "out" || hubs[0].Fan != 3 {
		t.Errorf("hub = %+v", hubs[0])
	}
}

func TestSupernodesSorted(t *testing.T) {
	m := NewSquare(6)
	// Vertex 5 receives from 4 peers; vertex 0 sends to 3.
	for i := 1; i < 5; i++ {
		m.Set(i, 5, 1)
	}
	for j := 1; j < 4; j++ {
		m.Set(0, j, 1)
	}
	hubs := SupernodesOf(m, 3)
	if len(hubs) != 2 || hubs[0].Index != 5 || hubs[1].Index != 0 {
		t.Errorf("expected fan-4 hub first: %+v", hubs)
	}
}
