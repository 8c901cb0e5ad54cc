package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Parallel semiring kernels over the CSR representation. Every
// kernel shards its work by contiguous row bands, so each goroutine
// writes a private output region and the results stitch together
// without locks. All kernels are deterministic: the output
// is identical for any worker count, which the kernel tests pin.
//
// Sparse semiring semantics: cells a representation does not store
// are the semiring's additive identity (Zero). Results equal to Zero
// stay implicit, so for semirings whose Zero is not the integer 0
// (MaxPlus) a densified product differs from the dense kernel
// exactly on the cells no term contributed to — the standard
// GraphBLAS convention. The representation itself additionally
// reserves the integer 0 for absent cells (At returns 0, Row visits
// only non-zero values, compaction drops zeros), so results equal to
// 0 also stay implicit even when 0 is a meaningful value in the
// semiring — MaxPlus path weights that sum to exactly 0 are
// indistinguishable from absent paths, by the same rule that drops
// them everywhere else in this package.

// resolveWorkers maps the workers argument onto a concrete goroutine
// count: ≤ 0 selects runtime.NumCPU(), and the count never exceeds
// rows (one band per row at most).
func resolveWorkers(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// rowBands splits [0,rows) into at most workers contiguous
// near-equal bands.
func rowBands(rows, workers int) [][2]int {
	workers = resolveWorkers(workers, rows)
	bands := make([][2]int, 0, workers)
	size := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += size {
		hi := lo + size
		if hi > rows {
			hi = rows
		}
		bands = append(bands, [2]int{lo, hi})
	}
	if len(bands) == 0 {
		bands = append(bands, [2]int{0, 0})
	}
	return bands
}

// parallelBands runs fn over each row band on its own goroutine. The
// caller supplies the band list (from rowBands), so kernels that
// stitch per-band output segments index them by the same bands the
// goroutines actually ran over.
func parallelBands(bands [][2]int, fn func(band int, lo, hi int)) {
	if len(bands) == 1 {
		fn(0, bands[0][0], bands[0][1])
		return
	}
	var wg sync.WaitGroup
	for b, span := range bands {
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			fn(b, lo, hi)
		}(b, span[0], span[1])
	}
	wg.Wait()
}

// MatVecSemiring computes y = m⊗x over the semiring s (SpMV),
// sharded across row bands. y[i] is s.Zero for rows with no stored
// entries. workers ≤ 0 selects runtime.NumCPU().
func (m *CSR) MatVecSemiring(x []int, s Semiring, workers int) ([]int, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("matrix: vector length %d does not match %d columns", len(x), m.cols)
	}
	y := make([]int, m.rows)
	parallelBands(rowBands(m.rows, workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.Zero
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				acc = s.Add(acc, s.Mul(m.vals[k], x[m.colIdx[k]]))
			}
			y[i] = acc
		}
	})
	return y, nil
}

// MatMulCSR computes the sparse product C = a⊗b over the semiring s
// (SpGEMM) with Gustavson's row-by-row algorithm: each output row
// gathers its terms in a sparse accumulator, and row bands run in
// parallel, each emitting a private (counts, colIdx, vals) segment
// that is stitched into the final CSR. Cells whose accumulated value
// is s.Zero stay implicit. workers ≤ 0 selects runtime.NumCPU().
func MatMulCSR(a, b *CSR, s Semiring, workers int) (*CSR, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	bands := rowBands(a.rows, workers)
	segIdx := make([][]int, len(bands))
	segVals := make([][]int, len(bands))
	rowLen := make([]int, a.rows+1) // rowLen[i+1] = nnz of output row i
	parallelBands(bands, func(bi, lo, hi int) {
		// The sparse accumulator: acc holds gathered values, stamp
		// marks which columns are live for the current row.
		acc := make([]int, b.cols)
		stamp := make([]int, b.cols)
		for j := range stamp {
			stamp[j] = -1
		}
		var touched []int
		var outIdx, outVals []int
		for i := lo; i < hi; i++ {
			touched = touched[:0]
			for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
				av := a.vals[ka]
				arow := a.colIdx[ka]
				for kb := b.rowPtr[arow]; kb < b.rowPtr[arow+1]; kb++ {
					j := b.colIdx[kb]
					t := s.Mul(av, b.vals[kb])
					if stamp[j] != i {
						stamp[j] = i
						touched = append(touched, j)
						acc[j] = s.Add(s.Zero, t)
					} else {
						acc[j] = s.Add(acc[j], t)
					}
				}
			}
			sort.Ints(touched)
			for _, j := range touched {
				// Zero results are implicit; so are literal-0 results
				// (the representation's reserved absent value), which
				// keeps the Matrix accessor contract — Row visits only
				// non-zero values — intact for every semiring.
				if acc[j] == s.Zero || acc[j] == 0 {
					continue
				}
				outIdx = append(outIdx, j)
				outVals = append(outVals, acc[j])
				rowLen[i+1]++
			}
		}
		segIdx[bi] = outIdx
		segVals[bi] = outVals
	})
	for i := 0; i < a.rows; i++ {
		rowLen[i+1] += rowLen[i]
	}
	out := &CSR{
		rows:   a.rows,
		cols:   b.cols,
		rowPtr: rowLen,
		colIdx: make([]int, 0, rowLen[a.rows]),
		vals:   make([]int, 0, rowLen[a.rows]),
	}
	for bi := range bands {
		out.colIdx = append(out.colIdx, segIdx[bi]...)
		out.vals = append(out.vals, segVals[bi]...)
	}
	return out, nil
}

// TransposeParallel returns the transpose, splitting both the column
// count and the scatter across row bands. The entry order within
// every output row matches the serial Transpose (ascending source
// row), so the result is byte-identical for any worker count.
// workers ≤ 1 falls back to the serial kernel.
func (m *CSR) TransposeParallel(workers int) *CSR {
	workers = resolveWorkers(workers, m.rows)
	if workers <= 1 || len(m.vals) < 1<<12 {
		return m.Transpose()
	}
	bands := rowBands(m.rows, workers)
	// Per-band column histograms: hist[b][j] = entries of column j in
	// band b's rows.
	hist := make([][]int, len(bands))
	parallelBands(bands, func(b, lo, hi int) {
		h := make([]int, m.cols)
		for k := m.rowPtr[lo]; k < m.rowPtr[hi]; k++ {
			h[m.colIdx[k]]++
		}
		hist[b] = h
	})
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.vals)),
		vals:   make([]int, len(m.vals)),
	}
	for j := 0; j < m.cols; j++ {
		total := 0
		for b := range hist {
			total += hist[b][j]
		}
		t.rowPtr[j+1] = t.rowPtr[j] + total
	}
	// Band b writes column j's entries at rowPtr[j] plus the counts
	// of all earlier bands, preserving ascending source-row order.
	// The exclusive prefix over the histograms is computed once —
	// O(bands·cols) — and each band then owns its offset row as the
	// scatter cursor.
	base := make([][]int, len(bands))
	for b := range bands {
		base[b] = make([]int, m.cols)
		for j := 0; j < m.cols; j++ {
			if b == 0 {
				base[b][j] = t.rowPtr[j]
			} else {
				base[b][j] = base[b-1][j] + hist[b-1][j]
			}
		}
	}
	parallelBands(bands, func(b, lo, hi int) {
		next := base[b]
		for i := lo; i < hi; i++ {
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				j := m.colIdx[k]
				pos := next[j]
				next[j]++
				t.colIdx[pos] = i
				t.vals[pos] = m.vals[k]
			}
		}
	})
	return t
}

// ReduceRows folds every row's stored values with s.Add, sharded
// across row bands: the semiring generalization of RowSums (PlusTimes
// reproduces it exactly). Rows with no stored entries reduce to
// s.Zero. workers ≤ 0 selects runtime.NumCPU().
func (m *CSR) ReduceRows(s Semiring, workers int) []int {
	out := make([]int, m.rows)
	parallelBands(rowBands(m.rows, workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.Zero
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				acc = s.Add(acc, m.vals[k])
			}
			out[i] = acc
		}
	})
	return out
}

// ReduceCols folds every column's stored values with s.Add: each row
// band accumulates a private column vector and the per-band vectors
// fold together in band order, which is exactly ascending-row order —
// the same fold the serial scatter performs. Columns with no stored
// entries reduce to s.Zero. workers ≤ 0 selects runtime.NumCPU().
func (m *CSR) ReduceCols(s Semiring, workers int) []int {
	bands := rowBands(m.rows, workers)
	partial := make([][]int, len(bands))
	parallelBands(bands, func(b, lo, hi int) {
		acc := make([]int, m.cols)
		for j := range acc {
			acc[j] = s.Zero
		}
		for i := lo; i < hi; i++ {
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				acc[m.colIdx[k]] = s.Add(acc[m.colIdx[k]], m.vals[k])
			}
		}
		partial[b] = acc
	})
	out := make([]int, m.cols)
	for j := range out {
		out[j] = s.Zero
	}
	for _, acc := range partial {
		for j, v := range acc {
			// Folding the band identity is a no-op for a monoid, but
			// skipping it avoids surprises with non-identity Zeros.
			if v == s.Zero {
				continue
			}
			out[j] = s.Add(out[j], v)
		}
	}
	return out
}

// Reduce folds all stored values with s.Add into one scalar, sharded
// across row bands. An empty matrix reduces to s.Zero.
func (m *CSR) Reduce(s Semiring, workers int) int {
	bands := rowBands(m.rows, workers)
	partial := make([]int, len(bands))
	parallelBands(bands, func(b, lo, hi int) {
		acc := s.Zero
		for k := m.rowPtr[lo]; k < m.rowPtr[hi]; k++ {
			acc = s.Add(acc, m.vals[k])
		}
		partial[b] = acc
	})
	acc := s.Zero
	for _, v := range partial {
		acc = s.Add(acc, v)
	}
	return acc
}
