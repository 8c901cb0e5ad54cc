package matrix

import "fmt"

// Mul computes the ordinary integer matrix product A·B. A must be
// r×k and B k×c; the result is r×c.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.cols+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += av * b.data[k*b.cols+j]
			}
		}
	}
	return out, nil
}

// TriangleCount returns the number of triangles in the undirected
// graph whose adjacency structure is m (entries are treated as
// boolean). It evaluates trace(A³)/6, the classic linear-algebra
// triangle census the GraphBLAS literature uses, which the Fig 10i
// "triangle" pattern test relies on.
func TriangleCount(m *Dense) (int, error) {
	if !m.IsSquare() {
		return 0, fmt.Errorf("matrix: triangle count needs a square matrix, got %dx%d", m.rows, m.cols)
	}
	a := m.Pattern()
	// Ignore self loops: they create degenerate "triangles".
	for i := 0; i < a.rows; i++ {
		a.Set(i, i, 0)
	}
	a2, err := Mul(a, a)
	if err != nil {
		return 0, err
	}
	a3, err := Mul(a2, a)
	if err != nil {
		return 0, err
	}
	return a3.Trace() / 6, nil
}
