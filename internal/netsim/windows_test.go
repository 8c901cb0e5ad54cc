package netsim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// windowsDenseReference is an independent from-scratch implementation
// of the fixed windowing contract, kept deliberately naive (one
// Between scan per window, dense aggregation): the parity oracle the
// single-pass sparse engine is checked against. Event e belongs to
// window k iff e.Time ≥ 0 and e.Time falls in [k·len, (k+1)·len) —
// every window keeps its full range even when the horizon cuts the
// last one short, matching the historical dense behaviour — except
// that the final window also takes an event at exactly the horizon
// (the final-boundary fix).
func windowsDenseReference(t Trace, net *Network, windowLen, horizon float64) []Window {
	if horizon <= 0 {
		horizon = t.Duration()
		if horizon == 0 {
			horizon = windowLen
		}
	}
	nw := int(math.Ceil(horizon / windowLen))
	if nw < 1 {
		nw = 1
	}
	out := make([]Window, nw)
	for k := 0; k < nw; k++ {
		start := float64(k) * windowLen
		end := start + windowLen
		var sub Trace
		for _, e := range t {
			if e.Time < 0 {
				continue
			}
			in := e.Time >= start && e.Time < end
			if k == nw-1 {
				in = e.Time >= start && (e.Time < end || e.Time == horizon)
			}
			if in {
				sub = append(sub, e)
			}
		}
		m, dropped := sub.Matrix(net)
		out[k] = Window{Start: start, End: end, Matrix: m, Events: len(sub), Dropped: dropped}
	}
	return out
}

// TestWindowsKeepsFinalBoundaryEvent is the regression test for the
// dropped-final-event bug: with a default horizon the old loop's
// half-open Between excluded the event at exactly t == Duration()
// whenever the duration was a whole number of windows.
func TestWindowsKeepsFinalBoundaryEvent(t *testing.T) {
	net := StandardNetwork()
	t.Run("exact multiple", func(t *testing.T) {
		trace := Trace{
			{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 1},
			{Time: 10, Src: "WS2", Dst: "SRV1", Packets: 2},
			{Time: 20, Src: "WS3", Dst: "SRV1", Packets: 4},
		}
		windows, err := trace.Windows(net, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(windows) != 2 {
			t.Fatalf("windows = %d, want 2", len(windows))
		}
		total := 0
		for _, w := range windows {
			total += w.Matrix.Sum()
		}
		if total != trace.TotalPackets() {
			t.Errorf("windows hold %d packets, trace has %d (final boundary event lost)", total, trace.TotalPackets())
		}
		last := windows[len(windows)-1]
		if last.Events != 2 || last.Matrix.Sum() != 6 {
			t.Errorf("final window events=%d sum=%d, want 2 events summing 6", last.Events, last.Matrix.Sum())
		}
	})
	t.Run("mid window", func(t *testing.T) {
		trace := Trace{
			{Time: 0, Src: "WS1", Dst: "SRV1", Packets: 1},
			{Time: 15, Src: "WS2", Dst: "SRV1", Packets: 2},
		}
		windows, err := trace.Windows(net, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(windows) != 2 {
			t.Fatalf("windows = %d, want 2", len(windows))
		}
		total := 0
		for _, w := range windows {
			total += w.Matrix.Sum()
		}
		if total != trace.TotalPackets() {
			t.Errorf("windows hold %d packets, trace has %d", total, trace.TotalPackets())
		}
	})
}

// TestDurationMaxOnUnsortedTrace is the regression test for
// Duration returning the last element's stamp: on an unsorted
// (freshly generated, pre-Sort) trace the last element is not the
// latest event.
func TestDurationMaxOnUnsortedTrace(t *testing.T) {
	trace := Trace{
		{Time: 3, Src: "A", Dst: "B", Packets: 1},
		{Time: 9, Src: "B", Dst: "A", Packets: 1},
		{Time: 4, Src: "A", Dst: "B", Packets: 1},
	}
	if d := trace.Duration(); d != 9 {
		t.Errorf("Duration() = %g on unsorted trace, want 9", d)
	}
	if d := (Trace{}).Duration(); d != 0 {
		t.Errorf("empty Duration() = %g, want 0", d)
	}
}

// TestWindowsSurfacesDropped is the regression test for Windows
// silently discarding the per-window dropped-packet count.
func TestWindowsSurfacesDropped(t *testing.T) {
	net := StandardNetwork()
	trace := Trace{
		{Time: 1, Src: "WS1", Dst: "SRV1", Packets: 2},
		{Time: 2, Src: "GHOST", Dst: "SRV1", Packets: 7},
		{Time: 12, Src: "WS1", Dst: "PHANTOM", Packets: 3},
	}
	windows, err := trace.Windows(net, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(windows))
	}
	if windows[0].Dropped != 7 || windows[1].Dropped != 3 {
		t.Errorf("Dropped = %d,%d, want 7,3", windows[0].Dropped, windows[1].Dropped)
	}
	// Events counts dropped events too; the matrix does not.
	if windows[0].Events != 2 || windows[0].Matrix.Sum() != 2 {
		t.Errorf("window 0 events=%d sum=%d, want 2 events summing 2", windows[0].Events, windows[0].Matrix.Sum())
	}
}

// TestWindowsFullFinalWindowOnTruncatingHorizon pins the historical
// contract for an explicit horizon that is not a whole number of
// windows: the final window keeps its complete [start, start+len)
// range — events between the horizon and the window's end are still
// counted, as the legacy dense loop counted them — and only events
// beyond the last window's end are excluded.
func TestWindowsFullFinalWindowOnTruncatingHorizon(t *testing.T) {
	net := StandardNetwork()
	trace := Trace{
		{Time: 21, Src: "WS1", Dst: "SRV1", Packets: 1},
		{Time: 27, Src: "WS2", Dst: "SRV1", Packets: 2}, // past horizon 25, inside [20,30)
		{Time: 31, Src: "WS3", Dst: "SRV1", Packets: 4}, // past the last window's end
	}
	windows, err := trace.Windows(net, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}
	last := windows[2]
	if last.Events != 2 || last.Matrix.Sum() != 3 {
		t.Errorf("final window events=%d sum=%d, want 2 events summing 3", last.Events, last.Matrix.Sum())
	}
}

// TestWindowsCSRRejectsBadInput pins the error paths.
func TestWindowsCSRRejectsBadInput(t *testing.T) {
	net := StandardNetwork()
	if _, err := (Trace{}).WindowsCSRArena(context.Background(), nil, net, 0, 10); err == nil {
		t.Error("zero window length accepted")
	}
	if _, err := (Trace{}).WindowsCSRArena(context.Background(), nil, net, -1, 10); err == nil {
		t.Error("negative window length accepted")
	}
	if _, err := (Trace{}).WindowsCSRArena(context.Background(), nil, nil, 1, 10); err == nil {
		t.Error("nil network accepted")
	}
	// An empty trace with a default horizon still yields one window.
	windows, err := (Trace{}).WindowsCSRArena(context.Background(), nil, net, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 || windows[0].Matrix.NNZ() != 0 {
		t.Errorf("empty trace windows = %d, want 1 empty window", len(windows))
	}
}

// sparseEqualsDense asserts a SparseWindow slice is cell-for-cell
// identical to a dense Window slice.
func sparseEqualsDense(t *testing.T, label string, sparse []SparseWindow, dense []Window) {
	t.Helper()
	if len(sparse) != len(dense) {
		t.Fatalf("%s: %d sparse windows vs %d dense", label, len(sparse), len(dense))
	}
	for k := range sparse {
		s, d := sparse[k], dense[k]
		if s.Start != d.Start || s.End != d.End || s.Events != d.Events || s.Dropped != d.Dropped {
			t.Errorf("%s window %d: bounds/counters differ: %+v vs Start=%g End=%g Events=%d Dropped=%d",
				label, k, s, d.Start, d.End, d.Events, d.Dropped)
		}
		if !s.Matrix.ToDense().Equal(d.Matrix) {
			t.Errorf("%s window %d: matrices differ", label, k)
		}
	}
}

// TestCatalogWindowingParity is the acceptance invariant: for every
// catalog scenario the single-pass sparse engine must be
// byte-identical to the fixed dense reference, on both an
// exact-multiple and a non-multiple window length, with and without
// an explicit horizon.
func TestCatalogWindowingParity(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for _, net := range []*Network{StandardNetwork(), ScaledNetwork(64)} {
				trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, Params{})
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []struct {
					name             string
					windowLen, horiz float64
				}{
					{"exact-multiple default horizon", 10, 0},
					{"non-multiple default horizon", 7.5, 0},
					{"explicit truncating horizon", 10, 25},
				} {
					sparse, err := trace.WindowsCSRArena(context.Background(), nil, net, cfg.windowLen, cfg.horiz)
					if err != nil {
						t.Fatal(err)
					}
					want := windowsDenseReference(trace, net, cfg.windowLen, cfg.horiz)
					label := cfg.name
					sparseEqualsDense(t, label, sparse, want)
					// The public dense adapter must agree with both.
					adapter, err := trace.Windows(net, cfg.windowLen, cfg.horiz)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(adapter, want) {
						t.Errorf("%s: Windows adapter differs from dense reference", label)
					}
				}
			}
		})
	}
}

// TestWindowsCSRSortInsensitive pins the single-pass claim: window
// membership depends only on each event's own timestamp, so a
// shuffled trace windows identically to a sorted one.
func TestWindowsCSRSortInsensitive(t *testing.T) {
	net := StandardNetwork()
	s, _ := LookupScenario("background")
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, 11, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append(Trace(nil), trace...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := trace.WindowsCSRArena(context.Background(), nil, net, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shuffled.WindowsCSRArena(context.Background(), nil, net, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k].Events != b[k].Events || a[k].Dropped != b[k].Dropped ||
			!a[k].Matrix.ToDense().Equal(b[k].Matrix.ToDense()) {
			t.Errorf("window %d differs between sorted and shuffled trace", k)
		}
	}
}

// benchTrace generates a heavy flashcrowd trace on a scaled network
// for the windowing benchmarks.
func benchTrace(b *testing.B, hosts, scale int) (Trace, *Network) {
	b.Helper()
	net := ScaledNetwork(hosts)
	s, ok := LookupScenario("flashcrowd")
	if !ok {
		b.Fatal("flashcrowd scenario missing")
	}
	trace, err := GenerateTraceArena(context.Background(), nil, s, net, 42, 0, Params{Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	return trace, net
}

// legacyWindows reproduces the pre-rewrite O(W·E) densifying loop
// (one Between scan plus one n² Dense per window) so the benchmark
// records what the single-pass engine replaced.
func legacyWindows(t Trace, net *Network, windowLen, horizon float64) []Window {
	var out []Window
	for start := 0.0; start < horizon; start += windowLen {
		end := start + windowLen
		sub := t.Between(start, end)
		m, _ := sub.Matrix(net)
		out = append(out, Window{Start: start, End: end, Matrix: m, Events: len(sub)})
	}
	return out
}

func BenchmarkWindowing(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		hosts int
		scale int
	}{
		{"1k-hosts", 1000, 4},
		{"10k-hosts", 10000, 4},
	} {
		cfg := cfg
		// The trace generates inside the named sub-benchmark so a
		// -bench filter on one size skips the other's generation too.
		b.Run(cfg.name, func(b *testing.B) {
			trace, net := benchTrace(b, cfg.hosts, cfg.scale)
			b.Run("legacy-dense", func(b *testing.B) {
				if cfg.hosts > 1000 {
					// 8 windows × (10k)² ints ≈ 6.4 GB: the dense loop
					// is infeasible at this size, which is the point.
					b.Skip("dense windowing infeasible at 10k hosts")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					legacyWindows(trace, net, 5, 40)
				}
			})
			b.Run("sparse-csr", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := trace.WindowsCSRArena(context.Background(), nil, net, 5, 40); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
