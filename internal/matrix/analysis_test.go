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

func TestIsolatedPairsDetection(t *testing.T) {
	m := NewSquare(6)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2) // isolated pair 0↔1
	m.Set(2, 3, 1) // one-way, still isolated as a pair
	m.Set(4, 5, 1)
	m.Set(4, 2, 1) // 4 talks to both 5 and 2: not isolated
	pairs := IsolatedPairsOf(m)
	want := [][2]int{{0, 1}}
	// Pair {2,3} is broken: vertex 2 also receives from 4.
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("IsolatedPairs = %v, want %v", pairs, want)
	}
}

func TestDegreeHistogram(t *testing.T) {
	m := NewSquare(3)
	m.Set(0, 1, 1)
	// Degrees (in-fan + out-fan): v0=1, v1=1, v2=0.
	hist := DegreeHistogramOf(m)
	if !reflect.DeepEqual(hist, []int{1, 2}) {
		t.Errorf("DegreeHistogram = %v", hist)
	}
}

func TestTopLinks(t *testing.T) {
	m := MustFromRows([][]int{
		{0, 5, 1},
		{0, 0, 5},
		{2, 0, 0},
	})
	top := TopLinksOf(m, 2)
	if len(top) != 2 {
		t.Fatalf("TopLinks len = %d", len(top))
	}
	// Two fives, tie broken by row: (0,1) before (1,2).
	if top[0] != (Entry{0, 1, 5}) || top[1] != (Entry{1, 2, 5}) {
		t.Errorf("TopLinks = %v", top)
	}
	if got := TopLinksOf(m, 100); len(got) != 4 {
		t.Errorf("TopLinks overshoot = %d entries", len(got))
	}
}
