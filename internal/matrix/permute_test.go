package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPermutation returns a deterministic pseudo-random bijection on
// [0,n).
func randomPermutation(n int, rng *rand.Rand) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// randomSquareCOO builds a deterministic sparse test matrix with
// duplicate coordinates (exercising compaction on the way to CSR).
func randomSquareCOO(n, entries int, rng *rand.Rand) *COO {
	c := NewCOO(n, n)
	for k := 0; k < entries; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
	}
	return c
}

func TestPermuteCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 32, 100} {
		coo := randomSquareCOO(n, 4*n, rng)
		csr := coo.ToCSR()
		dense := coo.ToDense()
		perm := randomPermutation(n, rng)

		got, err := PermuteCSR(csr, perm)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := PermuteDense(dense, perm)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.ToDense().Equal(want) {
			t.Errorf("n=%d: PermuteCSR disagrees with PermuteDense", n)
		}
		if got.NNZ() != csr.NNZ() {
			t.Errorf("n=%d: permutation changed nnz %d -> %d", n, csr.NNZ(), got.NNZ())
		}
	}
}

// TestPermuteCSRIdentityAndInverse: the identity is a no-op and
// applying the inverse permutation round-trips.
func TestPermuteCSRIdentityAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	csr := randomSquareCOO(20, 90, rng).ToCSR()
	id := make([]int, 20)
	inv := make([]int, 20)
	perm := randomPermutation(20, rng)
	for i := range id {
		id[i] = i
		inv[perm[i]] = i
	}
	same, err := PermuteCSR(csr, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, csr) {
		t.Error("identity permutation changed the matrix")
	}
	fwd, err := PermuteCSR(csr, perm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := PermuteCSR(fwd, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, csr) {
		t.Error("inverse permutation did not round-trip")
	}
}

func TestPermuteCSRRejectsBadInput(t *testing.T) {
	csr := NewCOO(3, 3).ToCSR()
	for name, perm := range map[string][]int{
		"short":        {0, 1},
		"out of range": {0, 1, 3},
		"duplicate":    {0, 1, 1},
	} {
		if _, err := PermuteCSR(csr, perm); err == nil {
			t.Errorf("%s permutation accepted", name)
		}
	}
	rect := NewCOO(2, 3).ToCSR()
	if _, err := PermuteCSR(rect, []int{0, 1}); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := PermuteDense(NewDense(2, 3), []int{0, 1}); err == nil {
		t.Error("PermuteDense accepted non-square matrix")
	}
}
