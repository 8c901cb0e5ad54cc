package patterns

import (
	"reflect"
	"testing"

	"repro/internal/matrix"
)

// readings is every classifier reading of one matrix.
type readings struct {
	Profile    matrix.Profile
	Supernodes []matrix.HotSpot
	Topology   TopologyKind
	Stage      AttackStage
	Posture    Posture
	DDoS       DDoSComponent
	Behavior   Behavior
	Mixture    []MixtureComponent
	Confs      [4]float64
}

// readAll takes every reading off a summary.
func readAll(s *Summary) readings {
	r := readings{Profile: s.Profile, Supernodes: s.Supernodes(SupernodeFanThreshold), Topology: s.Topology(), Mixture: s.Mixture()}
	r.Stage, r.Confs[0] = s.AttackStage()
	r.Posture, r.Confs[1] = s.Posture()
	r.DDoS, r.Confs[2] = s.DDoS()
	r.Behavior, r.Confs[3] = s.Behavior()
	return r
}

// readOf takes every reading through the exported …Of entry points.
func readOf(m matrix.Matrix, d *matrix.Dense, z Zones, roles *DDoSRoles) readings {
	r := readings{
		Profile: matrix.ProfileOf(m), Supernodes: matrix.SupernodesOf(m, SupernodeFanThreshold),
		Topology: ClassifyTopologyOf(m, z), Mixture: ClassifyMixtureOf(m, z),
	}
	r.Stage, r.Confs[0] = ClassifyAttackStageOf(m, z)
	r.Posture, r.Confs[1] = ClassifyPosture(d, z)
	if roles != nil {
		r.DDoS, r.Confs[2] = ClassifyDDoSOf(m, *roles)
	} else {
		r.DDoS, r.Confs[2] = DDoSC2, 0
	}
	r.Behavior, r.Confs[3] = ClassifyBehaviorOf(m, z)
	return r
}

// decodeSummaryInput reads fuzz bytes as a square matrix of at most
// 32×32 and a valid zone split over it: one byte for the size, two
// for the zone boundaries, then (row, col, value) triples with values
// in [-2, 6], accumulated so duplicates can cancel to zero.
func decodeSummaryInput(data []byte) (*matrix.Dense, Zones) {
	if len(data) < 3 {
		data = append(data[:len(data):len(data)], make([]byte, 3-len(data))...)
	}
	n := int(data[0])%32 + 1
	blue := int(data[1]) % (n + 1)
	z := Zones{N: n, BlueEnd: blue, GreyEnd: blue + int(data[2])%(n-blue+1)}
	d := matrix.NewSquare(n)
	for data = data[3:]; len(data) >= 3; data = data[3:] {
		d.Add(int(data[0])%n, int(data[1])%n, int(data[2])%9-2)
	}
	return d, z
}

// FuzzSummary checks that a Dense matrix and its CSR summarize to the
// same Summary, and that every reading — off the summary or through
// the …Of entry points — agrees across the two representations.
func FuzzSummary(f *testing.F) {
	f.Add([]byte{9, 4, 2, 0, 9, 3, 9, 0, 1, 4, 5, 2})
	f.Add([]byte{9, 4, 2, 6, 7, 2, 7, 6, 2, 0, 1, 8, 1, 0, 3})
	f.Add([]byte{31, 20, 5, 0, 3, 4, 1, 3, 4, 2, 3, 4, 25, 3, 8, 3, 25, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, z := decodeSummaryInput(data)
		c := matrix.FromDense(d).ToCSR()
		var cast *DDoSRoles
		if roles, err := AssignDDoSRoles(z); err == nil {
			cast = &roles
		}
		ds := new(Summary).Summarize(d, z, cast)
		cs := new(Summary).Summarize(c, z, cast)
		if !reflect.DeepEqual(ds, cs) {
			t.Fatalf("summaries differ:\ndense %+v\ncsr   %+v", ds, cs)
		}
		want := readAll(ds)
		for name, got := range map[string]readings{
			"csr summary": readAll(cs),
			"dense …Of":   readOf(d, d, z, cast),
			"csr …Of":     readOf(c, d, z, cast),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s readings differ:\n got %+v\nwant %+v", name, got, want)
			}
		}
	})
}

// TestSummaryReuse pins that a reused Summary reads exactly like a
// fresh one, whatever it summarized before.
func TestSummaryReuse(t *testing.T) {
	var reused Summary
	for _, data := range [][]byte{
		{31, 20, 5, 0, 3, 4, 1, 3, 4, 2, 3, 4, 25, 3, 8, 3, 25, 2},
		{9, 4, 2, 6, 7, 2, 7, 6, 2, 0, 1, 8, 1, 0, 3},
		{3, 1, 1, 0, 1, 5},
		{9, 4, 2, 0, 9, 3, 9, 0, 1, 4, 5, 2},
	} {
		d, z := decodeSummaryInput(data)
		c := matrix.FromDense(d).ToCSR()
		roles, err := AssignDDoSRoles(z)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readAll(reused.Summarize(c, z, &roles)), readAll(new(Summary).Summarize(c, z, &roles)); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: reused summary reads %+v, fresh %+v", z.N, got, want)
		}
	}
}
