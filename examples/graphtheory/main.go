// Graph theory: render all nine Fig 10 patterns, verify each with
// the structural classifier, and cross-check the triangle census
// with the GraphBLAS-style linear-algebra count — the paper's point
// that a traffic matrix "is not limited just to network
// communication".
package main

import (
	"fmt"
	"log"

	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/render"
	"repro/internal/term"
)

func main() {
	term.SetEnabled(false)

	for _, e := range patterns.ByFamily(patterns.FamilyGraph) {
		m, colors, err := e.Build()
		if err != nil {
			log.Fatal(err)
		}
		fb, err := render.Matrix2D(m, render.Matrix2DOptions{
			Labels:     patterns.StandardLabels10,
			Colors:     colors,
			ShowColors: true,
			Title:      fmt.Sprintf("Fig %s: %s", e.Figure, e.Title),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fb.Text())

		kind := patterns.ClassifyGraph(m)
		p := matrix.ProfileOf(m)
		tri, err := matrix.TriangleCount(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("classifier: %s | links %d | symmetric %v | triangles (trace(A³)/6): %d\n\n",
			kind, p.NNZ, p.Symmetric, tri)
		if kind.String() != e.Title {
			log.Fatalf("classifier mismatch for %s: got %s", e.ID, kind)
		}
	}
	fmt.Println("all nine graph-theory patterns verified structurally")
}
