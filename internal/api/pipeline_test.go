package api

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/patterns"
)

// tracePipelineResult builds a generate result the way the batch cold
// path did before it moved onto the streaming fold: materialize the
// globally sorted trace, fold it into the per-window view, then fold
// it again into the aggregate CSR. It is the oracle the served body is
// pinned to, and it keeps the trace pipeline's arena entry points
// exercised.
func tracePipelineResult(t *testing.T, arena *netsim.Arena, req GenerateRequest) *GenerateResult {
	t.Helper()
	ctx := context.Background()
	scn, err := resolveSpec(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.ScaledNetwork(req.Hosts)
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	workers := resolveWorkers(req.Workers)
	p := req.params().Normalized()
	trace, err := netsim.GenerateTraceArena(ctx, arena, scn, net, req.Seed, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	res := &GenerateResult{
		Version: Version, Spec: netsim.SpecString(scn), Scenario: scn.Name(), Shape: scn.Shape(),
		Hosts: net.Len(), Seed: req.Seed, Workers: workers, Duration: p.Duration,
		Events: len(trace), Packets: trace.TotalPackets(), Labels: net.Labels(),
		Network: net, Zones: zones,
	}
	// The run header is built here rather than through runHeader, so
	// the served header is checked against independent code.
	if sched, ok := scn.(netsim.Scheduler); ok {
		for _, ph := range sched.Schedule(p) {
			res.Schedule = append(res.Schedule, Phase{Label: ph.Label, Start: ph.Start, End: ph.End})
		}
	}
	if _, ok := scn.(netsim.Composite); ok {
		for _, leaf := range netsim.Leaves(scn) {
			res.ComposedOf = append(res.ComposedOf, leaf.Name())
		}
	}
	if req.Window > 0 {
		windows, err := trace.WindowsCSRArena(ctx, arena, net, req.Window, p.Duration)
		if err != nil {
			t.Fatal(err)
		}
		roles, rolesErr := patterns.AssignDDoSRoles(zones)
		for k, w := range windows {
			res.Windows = append(res.Windows, windowResult(k, w, zones, roles, rolesErr, res.Labels))
		}
	}
	csr, _ := trace.SparseMatrixArena(arena, net)
	arena.ReleaseTrace(trace)
	res.Aggregate = analyzeMatrix(csr, zones)
	res.AggregateCSR = csr
	return finishResult(res, false, req.IncludeMatrices)
}

// wireBody is the twserve response body for a result, with the
// wall-clock timings zeroed.
func wireBody(t *testing.T, res *GenerateResult) []byte {
	t.Helper()
	cp := *res
	cp.Timings = Timings{}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateMatchesTracePipeline pins the batch cold path, which
// runs the streaming fold, to the trace pipeline's output byte for
// byte: every catalog scenario plus two composed specs, across network
// sizes, window lengths (none, uneven, even), and with and without
// the dense cell grids, at one and four generation workers.
func TestGenerateMatchesTracePipeline(t *testing.T) {
	specs := []string{"overlay(background, sequence(scan, ddos))", "sequence(dilate(scan,2), amplify(ddos,4))"}
	for _, s := range netsim.Scenarios() {
		specs = append(specs, s.Name())
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc := New(WithCacheCapacity(0))
			arena := netsim.NewArena()
			seed := int64(0)
			for _, spec := range specs {
				for _, hosts := range []int{10, 48, 200} {
					for _, window := range []float64{0, 7, 15} {
						for _, matrices := range []bool{false, true} {
							seed++
							req := NewGenerateRequest(spec, WithSeed(seed), WithHosts(hosts), WithWindow(window), WithWorkers(workers))
							req.IncludeMatrices = matrices
							got, err := svc.Generate(context.Background(), req)
							if err != nil {
								t.Fatalf("%+v: %v", req, err)
							}
							want := tracePipelineResult(t, arena, req)
							if !bytes.Equal(wireBody(t, got), wireBody(t, want)) {
								t.Errorf("%+v: served body differs from the trace pipeline", req)
							}
						}
					}
				}
			}
		})
	}
}
