package patterns

import (
	"fmt"
	"math/rand"

	"repro/internal/matrix"
)

// The paper suggests harder exercises where stage patterns are
// "combined together or potentially mixed in with random background
// noise for a student to analyze". AddNoise builds those exercises
// deterministically from a seeded generator; Dense.AddMatrix combines
// the stages.

// AddNoise returns a copy of m with background traffic added to up
// to cells randomly chosen empty off-diagonal positions, each given a
// weight in [1,maxWeight]. Cells that already carry pattern traffic
// are never touched, so the underlying lesson stays readable. The
// rng makes the exercise reproducible for a whole classroom.
func AddNoise(m *matrix.Dense, rng *rand.Rand, cells, maxWeight int) (*matrix.Dense, error) {
	if rng == nil {
		return nil, fmt.Errorf("patterns: AddNoise needs a random source")
	}
	if cells < 0 || maxWeight < 1 {
		return nil, fmt.Errorf("patterns: invalid noise parameters cells=%d maxWeight=%d", cells, maxWeight)
	}
	out := m.Clone()
	var empty [][2]int
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if i != j && m.At(i, j) == 0 {
				empty = append(empty, [2]int{i, j})
			}
		}
	}
	rng.Shuffle(len(empty), func(a, b int) { empty[a], empty[b] = empty[b], empty[a] })
	if cells > len(empty) {
		cells = len(empty)
	}
	for _, pos := range empty[:cells] {
		out.Set(pos[0], pos[1], 1+rng.Intn(maxWeight))
	}
	return out, nil
}
