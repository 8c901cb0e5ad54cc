// Composition walkthrough: the scenario algebra that takes the
// catalog from eight fixed scripts to an unbounded exercise space.
// Build a mixture two ways — combinators in Go and a declarative
// spec expression — then disentangle it with the mixture classifier,
// verify that relabeling hosts is exactly a matrix permutation, and
// reuse the mixture inside a larger spec by its expression.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
)

func main() {
	ctx := context.Background()
	net := netsim.StandardNetwork()
	zones, err := net.Zones()
	if err != nil {
		log.Fatal(err)
	}

	// 1. Combinators in Go: background chatter overlaid with a scan
	// confined to the first ten seconds, then a DDoS.
	background, _ := netsim.LookupScenario("background")
	scan, _ := netsim.LookupScenario("scan")
	ddos, _ := netsim.LookupScenario("ddos")
	composed := netsim.Overlay(
		background,
		netsim.SequenceSteps(
			netsim.SeqStep{Scenario: scan, Duration: 10},
			netsim.SeqStep{Scenario: ddos},
		),
	)
	fmt.Println("composed scenario:", composed.Name())

	// 2. The same mixture from its declarative spec — a composed
	// scenario's name IS a parseable spec.
	fromSpec, err := netsim.ParseSpec(composed.Name())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("spec round trip:  ", fromSpec.Name())

	// The merged ground-truth schedule survives composition.
	p := netsim.Params{Duration: 40}
	if sched, ok := composed.(netsim.Scheduler); ok {
		fmt.Println("ground truth schedule:")
		for _, ph := range sched.Schedule(p) {
			fmt.Printf("  [%5.1fs,%5.1fs) %s\n", ph.Start, ph.End, ph.Label)
		}
	}

	// Generate on the sparse path and disentangle the layers.
	csr, stats, err := netsim.GenerateCSRArena(ctx, nil, composed, net, 42, 0, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated %d events, %d packets, nnz=%d\n",
		stats.Events, stats.Packets, csr.NNZ())
	fmt.Println("mixture reading:")
	for _, c := range patterns.ClassifyMixtureOf(csr, zones) {
		fmt.Printf("  %-12s %.2f\n", c.Label, c.Score)
	}

	// 3. Relabeling hosts at the event level equals the symmetric
	// permutation of the matrix — the algebraic fact that
	// makes relabeled variants of one scenario distinct exercises.
	mapping := map[string]string{"WS1": "WS3", "WS3": "WS1"}
	relabeled, _, err := netsim.GenerateCSRArena(ctx, nil, netsim.Relabel(composed, mapping), net, 42, 0, p)
	if err != nil {
		log.Fatal(err)
	}
	perm, err := netsim.PermutationOf(net, mapping)
	if err != nil {
		log.Fatal(err)
	}
	permuted, err := matrix.PermuteCSR(csr, perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRelabel == PermuteCSR: %v\n", reflect.DeepEqual(relabeled, permuted))

	// 4. Reuse the mixture by expression: the catalog is fixed, and
	// a composed scenario's name nests in any larger spec.
	nested, err := netsim.ParseSpec("amplify(" + composed.Name() + ", 2)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reused by expression:", nested.Name())
}
