package netsim

import (
	"sort"

	"repro/internal/matrix"
)

// Event is one observed flow record: src sent packets to dst at a
// point in time. Events are the simulated counterpart of the
// network sensor feeds the paper's GraphBLAS references aggregate
// into hypersparse traffic matrices.
type Event struct {
	// Time is seconds since scenario start.
	Time float64
	// Src and Dst are host names.
	Src, Dst string
	// Packets is the packet count of the flow.
	Packets int
}

// Trace is a time-ordered event sequence.
type Trace []Event

// Sort orders the trace by time (stable on equal stamps, preserving
// emission order).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].Time < t[j].Time })
}

// Duration returns the maximum event timestamp, or 0 for an empty
// trace. The maximum — not the last element's stamp — so the value
// is correct on a freshly generated, not-yet-sorted trace too.
func (t Trace) Duration() float64 {
	max := 0.0
	for _, e := range t {
		if e.Time > max {
			max = e.Time
		}
	}
	return max
}

// TotalPackets sums all packets in the trace.
func (t Trace) TotalPackets() int {
	total := 0
	for _, e := range t {
		total += e.Packets
	}
	return total
}

// Between returns the sub-trace with t0 ≤ Time < t1, preserving
// order.
func (t Trace) Between(t0, t1 float64) Trace {
	var out Trace
	for _, e := range t {
		if e.Time >= t0 && e.Time < t1 {
			out = append(out, e)
		}
	}
	return out
}

// Assoc aggregates the whole trace into an associative array keyed
// by host names: the D4M view of the traffic.
func (t Trace) Assoc() *matrix.Assoc {
	a := matrix.NewAssoc()
	for _, e := range t {
		a.Add(e.Src, e.Dst, e.Packets)
	}
	return a
}

// Matrix aggregates the whole trace onto a network's axis. Events
// naming unknown hosts are counted as dropped.
func (t Trace) Matrix(net *Network) (*matrix.Dense, int) {
	return t.Assoc().ToDense(net.Labels())
}

// SparseMatrixArena aggregates the whole trace onto a network's axis
// as a CSR, never materializing the n² cells: one linear fold into a
// COO followed by compaction. Events naming unknown hosts are counted
// in the returned dropped packet total, mirroring Matrix. The COO
// accumulator's storage is pooled in the arena (nil allocates fresh —
// identical output either way); it is pre-sized to the trace length
// and released before returning, and the CSR's arrays are freshly
// allocated and the caller's forever.
func (t Trace) SparseMatrixArena(a *Arena, net *Network) (*matrix.CSR, int) {
	n := net.Len()
	hint := divHint(len(t), 1)
	c := matrix.NewCOOIn(a.Matrix(), n, n, hint)
	dropped := 0
	for _, e := range t {
		i, iok := net.Index(e.Src)
		j, jok := net.Index(e.Dst)
		if !iok || !jok {
			dropped += e.Packets
			continue
		}
		c.Add(i, j, e.Packets)
	}
	csr := c.ToCSR()
	c.Release()
	return csr, dropped
}
