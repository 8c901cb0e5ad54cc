// DDoS analysis: the analyst workflow the game trains students
// toward. Simulate a DDoS embedded in benign background traffic,
// aggregate the packet events into ten-second traffic matrices, and
// recover the attack's component timeline with the pattern
// classifier — reading the story the matrices tell.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/render"
	"repro/internal/term"
)

func main() {
	term.SetEnabled(false)

	net := netsim.StandardNetwork()
	rng := rand.New(rand.NewSource(2024))
	zones, err := net.Zones()
	if err != nil {
		log.Fatal(err)
	}
	roles, err := patterns.AssignDDoSRoles(zones)
	if err != nil {
		log.Fatal(err)
	}

	const duration = 40.0
	ddos, _ := netsim.LookupScenario("ddos")
	attack, err := generate(ddos, net, rng, netsim.Params{Duration: duration})
	if err != nil {
		log.Fatal(err)
	}
	phases := ddos.(netsim.Scheduler).Schedule(netsim.Params{Duration: duration})
	benign, _ := netsim.LookupScenario("background")
	background, err := generate(benign, net, rng, netsim.Params{Duration: duration, Rate: 2})
	if err != nil {
		log.Fatal(err)
	}
	combined := append(attack, background...)
	combined.Sort()

	fmt.Printf("simulated %d events (%d packets): DDoS + benign background\n",
		len(combined), combined.TotalPackets())
	fmt.Println("ground truth phases:")
	for _, p := range phases {
		fmt.Printf("  [%4.0fs,%4.0fs) %s\n", p.Start, p.End, p.Label)
	}

	windows, err := combined.WindowsCSRArena(context.Background(), nil, net, 10, duration)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nanalyst reading, window by window:")
	recovered := 0
	for i, w := range windows {
		component, conf := patterns.ClassifyDDoSOf(w.Matrix, roles)
		truth := phases[i].Label
		ok := component.String() == truth
		if ok {
			recovered++
		}
		fmt.Printf("  [%4.0fs,%4.0fs) %-20s (confidence %.2f, truth: %s) %s\n",
			w.Start, w.End, component, conf, truth, mark(ok))
	}
	fmt.Printf("recovered %d/%d phases despite background noise\n\n", recovered, len(windows))

	// Show the flood window as the student would see it in-game.
	floodWindow := windows[2]
	fb, err := render.Matrix2D(floodWindow.Matrix.ToDense(), render.Matrix2DOptions{
		Labels: net.Labels(),
		Colors: zones.ColorMatrix(),
		Title:  "The flood window, as a traffic matrix",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fb.Text())

	// And the headline numbers an analyst reports.
	in := floodWindow.Matrix.ColSums()
	victim, peak := 0, 0
	for i, v := range in {
		if v > peak {
			victim, peak = i, v
		}
	}
	fmt.Printf("victim: %s absorbed %d packets in 10s (%.0f%% of window traffic)\n",
		net.Labels()[victim], peak, 100*float64(peak)/float64(floodWindow.Matrix.Sum()))
}

// generate runs a catalog scenario on one worker, drawing its seed
// from rng.
func generate(s netsim.Scenario, net *netsim.Network, rng *rand.Rand, p netsim.Params) (netsim.Trace, error) {
	return netsim.GenerateTraceArena(context.Background(), nil, s, net, rng.Int63(), 1, p)
}

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
