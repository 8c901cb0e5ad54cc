package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomSquare builds a matched (Dense, CSR) pair of the same random
// square matrix.
func randomSquare(t testing.TB, seed int64, n int, density float64) (*Dense, *CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	entries := int(density * float64(n) * float64(n))
	for k := 0; k < entries; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
	}
	csr := c.ToCSR()
	return csr.ToDense(), csr
}

// TestAnalysisParityDenseVsCSR pins the tentpole invariant at the
// matrix layer: every analysis helper produces byte-identical
// results through either representation.
func TestAnalysisParityDenseVsCSR(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		n       int
		density float64
	}{
		{"sparse", 1, 30, 0.05},
		{"moderate", 2, 20, 0.3},
		{"dense", 3, 8, 0.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, c := randomSquare(t, tc.seed, tc.n, tc.density)
			if got, want := ProfileOf(c), ProfileOf(d); !reflect.DeepEqual(got, want) {
				t.Errorf("ProfileOf: CSR %+v != Dense %+v", got, want)
			}
			if got, want := SupernodesOf(c, 3), SupernodesOf(d, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("SupernodesOf: CSR %v != Dense %v", got, want)
			}
		})
	}
}

func TestProfileOfSymmetricAndReciprocal(t *testing.T) {
	d := MustFromRows([][]int{
		{0, 2, 0},
		{2, 0, 1},
		{0, 1, 0},
	})
	for _, m := range []Matrix{d, FromDense(d).ToCSR()} {
		p := ProfileOf(m)
		if !p.Symmetric {
			t.Error("symmetric matrix profiled as asymmetric")
		}
		if p.Reciprocal != 2 {
			t.Errorf("Reciprocal = %d, want 2", p.Reciprocal)
		}
	}
	asym := MustFromRows([][]int{{0, 1}, {2, 0}})
	for _, m := range []Matrix{asym, FromDense(asym).ToCSR()} {
		if p := ProfileOf(m); p.Symmetric {
			t.Error("asymmetric matrix profiled as symmetric")
		}
	}
}

func TestProfileOfNonSquare(t *testing.T) {
	d := NewDense(2, 3)
	c := FromDense(d).ToCSR()
	for _, m := range []Matrix{d, c} {
		if p := ProfileOf(m); p.N != -1 {
			t.Errorf("non-square profile N = %d, want -1", p.N)
		}
	}
}
