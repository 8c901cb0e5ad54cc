package matrix

import (
	"reflect"
	"slices"
	"testing"
)

// Native fuzz targets for the sparse substrate. Each target decodes
// the fuzz input as a triple stream on a small matrix and asserts
// the algebraic invariants the concurrent engine leans on:
// compaction idempotence, split- and order-invariance of compacting
// compacted parts together, and lossless representation round trips. Seed corpora live in
// testdata/fuzz/<Target>/ and are extended automatically by local
// `go test -fuzz` runs.

// decodeTriples interprets fuzz bytes as (rows, cols, triples):
// the first two bytes pick dimensions in [1,16], then every 3-byte
// group is one (row, col, val) with val in [-2, 6] so duplicate
// sums regularly cancel to zero.
func decodeTriples(data []byte) (rows, cols int, entries []Entry) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	rows = int(data[0])%16 + 1
	cols = int(data[1])%16 + 1
	data = data[2:]
	for len(data) >= 3 {
		entries = append(entries, Entry{
			Row: int(data[0]) % rows,
			Col: int(data[1]) % cols,
			Val: int(data[2])%9 - 2,
		})
		data = data[3:]
	}
	return rows, cols, entries
}

// buildCOO assembles a COO from decoded triples.
func buildCOO(rows, cols int, entries []Entry) *COO {
	c := NewCOO(rows, cols)
	for _, e := range entries {
		c.Add(e.Row, e.Col, e.Val)
	}
	return c
}

// denseReference accumulates the triples densely: the ground truth
// every sparse representation must reproduce.
func denseReference(rows, cols int, entries []Entry) *Dense {
	d := NewDense(rows, cols)
	for _, e := range entries {
		d.Add(e.Row, e.Col, e.Val)
	}
	return d
}

// entriesEqual compares triple slices element-wise, treating nil and
// empty as equal (compaction may leave either).
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryLess is the row-major triple order of compacted entries.
func entryLess(a, b Entry) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// assertCompactInvariants checks the compacted-entries contract:
// row-major sorted, unique coordinates, no zero values.
func assertCompactInvariants(t *testing.T, es []Entry) {
	t.Helper()
	for k, e := range es {
		if e.Val == 0 {
			t.Fatalf("entry %d has zero value: %+v", k, e)
		}
		if k > 0 && !entryLess(es[k-1], e) {
			t.Fatalf("entries %d,%d out of order or duplicated: %+v, %+v", k-1, k, es[k-1], e)
		}
	}
}

func fuzzSeeds(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{4, 4})
	f.Add([]byte{3, 3, 0, 0, 5, 0, 0, 255, 1, 2, 9, 1, 2, 9, 2, 0, 2})
	f.Add([]byte{16, 1, 7, 0, 3, 7, 0, 1, 15, 0, 6, 2, 0, 0})
}

func FuzzCompact(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := denseReference(rows, cols, entries)

		c := buildCOO(rows, cols, entries)
		c.Compact()
		assertCompactInvariants(t, c.entries)
		if !c.ToDense().Equal(want) {
			t.Fatal("Compact changed the accumulated matrix")
		}
		// Idempotence, with the fast-path flag cleared so the dedup
		// pass genuinely re-runs over already-compact entries.
		once := append([]Entry(nil), c.entries...)
		c.compacted = false
		c.Compact()
		if !entriesEqual(c.entries, once) {
			t.Fatalf("Compact not idempotent: %v then %v", once, c.entries)
		}
	})
}

// FuzzCompactConcat pins the property the sparse fold's aggregate
// rests on (netsim compacts each worker's remainder on its own, then
// compacts their concatenation with the sealed windows): compacting
// the parts of any split first and then compacting their
// concatenation gives the sum of every triple, entry for entry the
// same whichever order the parts are concatenated in, with cells
// whose values cancel to zero dropped.
func FuzzCompactConcat(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := denseReference(rows, cols, entries)

		for _, split := range []int{1, 2, 3, 5} {
			parts := make([]*COO, split)
			for s := range parts {
				parts[s] = NewCOO(rows, cols)
			}
			for k, e := range entries {
				parts[k%split].Add(e.Row, e.Col, e.Val)
			}
			for _, p := range parts {
				assertCompactInvariants(t, p.Compact().entries)
			}
			concat := func(parts []*COO) *COO {
				c := NewCOO(rows, cols)
				for _, p := range parts {
					c.AddEntries(p.entries)
				}
				return c.Compact()
			}
			fwd := concat(parts)
			assertCompactInvariants(t, fwd.entries)
			if !fwd.ToDense().Equal(want) {
				t.Fatalf("compacting %d compacted parts together changed the matrix", split)
			}
			slices.Reverse(parts)
			if back := concat(parts); !entriesEqual(back.entries, fwd.entries) {
				t.Fatalf("part order changed the compacted concatenation: %v vs %v", back.entries, fwd.entries)
			}
		}
	})
}

func FuzzCSRRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, entries := decodeTriples(data)
		want := denseReference(rows, cols, entries)

		csr := buildCOO(rows, cols, entries).ToCSR()
		if csr.Rows() != rows || csr.Cols() != cols {
			t.Fatalf("CSR shape %dx%d, want %dx%d", csr.Rows(), csr.Cols(), rows, cols)
		}
		if !csr.ToDense().Equal(want) {
			t.Fatal("COO→CSR→Dense differs from direct accumulation")
		}
		// Lossless COO↔CSR↔Dense round trips.
		back := csr.ToCOO()
		assertCompactInvariants(t, back.entries)
		if !reflect.DeepEqual(back.ToCSR(), csr) {
			t.Fatal("CSR→COO→CSR not identical")
		}
		if !reflect.DeepEqual(FromDense(csr.ToDense()).ToCSR(), csr) {
			t.Fatal("CSR→Dense→COO→CSR not identical")
		}
		// At must agree with the dense cells, including zeros.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if csr.At(i, j) != want.At(i, j) {
					t.Fatalf("At(%d,%d) = %d, want %d", i, j, csr.At(i, j), want.At(i, j))
				}
			}
		}
	})
}
