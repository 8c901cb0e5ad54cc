package bridge

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// windowBounds reads the [start, end) bounds back out of a timeline
// module's name.
func windowBounds(t *testing.T, name string) (start, end float64) {
	t.Helper()
	i := strings.LastIndex(name, "[")
	if i < 0 {
		t.Fatalf("module %q names no window", name)
	}
	if _, err := fmt.Sscanf(name[i:], "[%gs,%gs)", &start, &end); err != nil {
		t.Fatalf("module %q: %v", name, err)
	}
	return start, end
}

// TestCampaignStopsAtDuration: the timeline covers the configured
// run and nothing past it. Scenarios answer some events a few
// milliseconds after they fire, so a run's last replies can land
// just past its duration; windowing to the last event instead of the
// duration adds a trailing window holding only those replies (attack
// on 200 hosts, seed 42, 10s windows: "window 5 [40s,50s)", whose
// phase question falls back to the last phase).
func TestCampaignStopsAtDuration(t *testing.T) {
	for _, s := range netsim.Scenarios() {
		for _, hosts := range []int{48, 200} {
			net := netsim.ScaledNetwork(hosts)
			for _, seed := range []int64{1, 42} {
				p := netsim.Params{}
				c, err := CampaignFromScenario(context.Background(), s, net, seed, 0, p, 10)
				if err != nil {
					t.Fatalf("%s hosts=%d seed=%d: %v", s.Name(), hosts, seed, err)
				}
				duration := p.Normalized().Duration
				for ref, lesson := range c.Lessons {
					if !strings.HasSuffix(ref, "_timeline.zip") {
						continue
					}
					for _, m := range lesson.Modules {
						if start, _ := windowBounds(t, m.Name); start >= duration {
							t.Errorf("%s hosts=%d seed=%d: module %q starts at or past the %gs run",
								s.Name(), hosts, seed, m.Name, duration)
						}
					}
				}
			}
		}
	}
}

// traceCampaign assembles the campaign the batch trace pipeline
// yields: the materialized trace folded into the aggregate CSR and
// split into windows up to the configured duration.
func traceCampaign(t *testing.T, s netsim.Scenario, net *netsim.Network, seed int64, workers int, p netsim.Params, windowLen float64) *Campaign {
	t.Helper()
	ctx := context.Background()
	zones, err := net.Zones()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := netsim.GenerateTraceArena(ctx, nil, s, net, seed, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := trace.SparseMatrixArena(nil, net)
	windows, err := trace.WindowsCSRArena(ctx, nil, net, windowLen, p.Normalized().Duration)
	if err != nil {
		t.Fatal(err)
	}
	c, err := assembleCampaign(s, net, zones, p, windowLen, csr, windows)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCampaignMatchesTracePipeline pins the streamed campaign to the
// batch trace pipeline: for every catalog entry and two composed
// specs, across network sizes, window lengths and worker counts, the
// two encode to identical JSON.
func TestCampaignMatchesTracePipeline(t *testing.T) {
	scenarios := netsim.Scenarios()
	for _, spec := range []string{"overlay(background, sequence(scan, ddos))", "sequence(scan@10s, amplify(ddos, 2))"} {
		s, err := netsim.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	p := netsim.Params{}
	for _, s := range scenarios {
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			for _, hosts := range []int{10, 48, 200} {
				net := netsim.ScaledNetwork(hosts)
				for _, windowLen := range []float64{5, 7, 10, 15} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("hosts=%d window=%g workers=%d", hosts, windowLen, workers)
						c, err := CampaignFromScenario(context.Background(), s, net, 7, workers, p, windowLen)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := json.Marshal(c)
						if err != nil {
							t.Fatal(err)
						}
						want, err := json.Marshal(traceCampaign(t, s, net, 7, workers, p, windowLen))
						if err != nil {
							t.Fatal(err)
						}
						if string(got) != string(want) {
							t.Errorf("%s: streamed campaign differs from the trace pipeline", name)
						}
					}
				}
			}
		})
	}
}
