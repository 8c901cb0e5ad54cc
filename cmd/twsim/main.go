// Command twsim runs network scenario simulations from the netsim
// catalog and shows the traffic matrices they produce, window by
// window, with the pattern classifiers' reading of each window — the
// analyst's workflow the game trains students for. It is a thin
// client of the internal/api façade: one typed GenerateRequest runs
// the whole pipeline (concurrent generation, sparse windowing,
// classification), and twsim only renders the result. The same
// request served over HTTP is cmd/twserve; the CLI and the server
// are the same API call.
//
// Beyond the catalog, -spec runs arbitrary scenario mixtures built
// with the composition algebra — an inline expression like
//
//	twsim -spec 'overlay(background, sequence(scan@10s, ddos))'
//
// or a file holding one — and the aggregate block adds the mixture
// classifier's attempt to disentangle the layers. -json emits the
// complete result as machine-readable JSON (the api wire form).
// Interrupting a long run (Ctrl-C) cancels the request context,
// which aborts the sharded generation workers mid-run.
//
// -stream switches to the incremental path (api.GenerateStream):
// windows print the moment the engine finalizes them instead of
// after the whole run, so a long simulation shows its first window
// in seconds. With -json, -stream emits the raw NDJSON frame stream
// (api.StreamFrame per line — the same wire form twserve's
// /v1/generate/stream serves). Streaming bypasses the result cache
// and cannot -export (the busiest window is only known at the end).
//
// Run with -list to see the scenario catalog.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/render"
	"repro/internal/term"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "twsim:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args with a private
// FlagSet and writes all output to stdout, so golden tests can drive
// the full command without forking a process. The context is the
// request's lifetime — main wires it to Ctrl-C.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("twsim", flag.ContinueOnError)
	// Parse errors are reported once by the caller (to stderr in
	// production); only an explicit -h prints usage, to stdout.
	fs.SetOutput(io.Discard)
	scenario := fs.String("scenario", "ddos", "scenario name from the catalog (see -list)")
	spec := fs.String("spec", "", "composed scenario: an expression like 'overlay(background, scan)' or a file holding one (overrides -scenario)")
	list := fs.Bool("list", false, "list the scenario catalog and exit")
	seed := fs.Int64("seed", 42, "random seed")
	duration := fs.Float64("duration", 40, "scenario length in seconds")
	rate := fs.Float64("rate", 4, "intensity hint in events/sec for open-ended scenarios")
	scale := fs.Int("scale", 1, "volume multiplier (script repetitions)")
	workers := fs.Int("workers", 0, "generation workers (0 = all CPUs)")
	hosts := fs.Int("hosts", 0, "network size (≤10 = the paper's standard 10-host network)")
	window := fs.Float64("window", 10, "aggregation window in seconds")
	noRender := fs.Bool("norender", false, "skip per-window matrix rendering (throughput runs)")
	stream := fs.Bool("stream", false, "stream windows as they are generated instead of waiting for the whole run")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON (the api wire form) instead of text")
	exportPath := fs.String("export", "", "export the busiest window as a module JSON file")
	plain := fs.Bool("plain", false, "disable ANSI colors")
	if err := fs.Parse(args); err != nil {
		// -h/-help is a success, not an error (matching the old
		// ExitOnError behaviour's exit 0).
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w (run twsim -h for usage)", err)
	}
	if *plain {
		term.SetEnabled(false)
	}

	svc := api.New()
	if *list {
		return listCatalog(svc, stdout)
	}

	// Spec-file resolution stays in the front-end: the service never
	// reads the filesystem.
	requested := *scenario
	if *spec != "" {
		canonical, err := api.ResolveSpecArg(*spec, os.ReadFile)
		if err != nil {
			return err
		}
		requested = canonical
	}
	if *duration <= 0 {
		return fmt.Errorf("duration must be positive, got %g", *duration)
	}
	if *rate <= 0 {
		return fmt.Errorf("rate must be positive, got %g", *rate)
	}
	if *scale < 1 {
		return fmt.Errorf("scale must be ≥ 1, got %d", *scale)
	}
	if *window <= 0 {
		return fmt.Errorf("window length must be positive, got %g", *window)
	}

	req := api.NewGenerateRequest(requested,
		api.WithSeed(*seed),
		api.WithHosts(*hosts),
		api.WithWorkers(*workers),
		api.WithParams(*duration, *rate, *scale),
		api.WithWindow(*window),
	)

	if *stream {
		if *exportPath != "" {
			return fmt.Errorf("-export needs the complete result; run without -stream")
		}
		return runStream(ctx, svc, stdout, req, *jsonOut, *noRender)
	}

	res, err := svc.Generate(ctx, req)
	if err != nil {
		return err
	}

	if *jsonOut {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	} else if err := printResult(stdout, res, *noRender); err != nil {
		return err
	}

	if *exportPath != "" {
		if w := busiestWindow(res); w != nil {
			m := api.WindowModule(res, w, "twsim")
			data, err := core.EncodeModule(m)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*exportPath, data, 0o644); err != nil {
				return err
			}
			if !*jsonOut {
				fmt.Fprintf(stdout, "\nexported busiest window as %s\n", *exportPath)
			}
		}
	}
	return nil
}

// printResult renders a generate result as the analyst's text view.
func printResult(stdout io.Writer, res *api.GenerateResult, noRender bool) error {
	fmt.Fprintf(stdout, "scenario %s on %d hosts: %d events, %d packets over %.1fs\n",
		res.Scenario, res.Hosts, res.Events, res.Packets, res.Duration)
	fmt.Fprintf(stdout, "generated in %v (%.0f events/sec, workers=%d)\n",
		res.Timings.Generate.Round(time.Microsecond),
		float64(res.Events)/res.Timings.Generate.Seconds(), res.Workers)
	fmt.Fprintf(stdout, "expected shape: %s\n", res.Shape)
	if len(res.Schedule) > 0 {
		fmt.Fprintln(stdout, "ground truth schedule:")
		for _, ph := range res.Schedule {
			fmt.Fprintf(stdout, "  [%5.1fs,%5.1fs) %s\n", ph.Start, ph.End, ph.Label)
		}
	}

	// The zone color grid is an O(n²) dense build; derive it once,
	// and only when windows will actually be drawn.
	var colors *matrix.Dense
	if !noRender && len(res.Windows) > 0 {
		colors = res.Zones.ColorMatrix()
	}
	for i := range res.Windows {
		if err := printWindow(stdout, &res.Windows[i], res.Labels, colors, noRender); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "\n── aggregate readings (sparse CSR path)\n   sparse timings: profile+classify %v\n",
		res.Timings.Analyze.Round(time.Microsecond))
	printAggregate(stdout, res.Aggregate, res.ComposedOf)
	return nil
}

// printWindow renders one window of the analyst view: the text view
// shared verbatim by the batch and streaming paths.
func printWindow(stdout io.Writer, w *api.WindowResult, labels []string, colors *matrix.Dense, noRender bool) error {
	fmt.Fprintf(stdout, "\n── window [%5.1fs,%5.1fs): %d events, %d packets\n", w.Start, w.End, w.Events, w.Packets)
	if w.Dropped > 0 {
		fmt.Fprintf(stdout, "   (%d packets dropped: events name hosts outside the axis)\n", w.Dropped)
	}
	if !noRender {
		fb, err := render.Matrix2D(w.Matrix.ToDense(), render.Matrix2DOptions{
			Labels: labels,
			Colors: colors,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, fb.ANSI())
	}
	if w.AttackStage != nil {
		fmt.Fprintf(stdout, "   attack-stage reading: %s (%.2f)\n", w.AttackStage.Label, w.AttackStage.Confidence)
	}
	if w.DDoS != nil {
		fmt.Fprintf(stdout, "   ddos reading:         %s (%.2f)\n", w.DDoS.Label, w.DDoS.Confidence)
	}
	if w.Hub != nil {
		fmt.Fprintf(stdout, "   busiest hub:          %s (%s fan %d, %d packets)\n",
			w.Hub.Host, w.Hub.Direction, w.Hub.Fan, w.Hub.Packets)
	}
	return nil
}

// printAggregate renders the whole-run classifier block, shared by
// the batch footer and the stream's summary frame.
func printAggregate(stdout io.Writer, agg api.Aggregate, composedOf []string) {
	fmt.Fprintf(stdout, "   n=%d nnz=%d (density %.2f%%) packets=%d max-cell=%d\n",
		agg.Profile.N, agg.Profile.NNZ, agg.Profile.DensityPct, agg.Profile.Packets, agg.Profile.MaxCell)
	if agg.Behavior != nil {
		fmt.Fprintf(stdout, "   behavior:  %s (%.2f)\n", agg.Behavior.Label, agg.Behavior.Confidence)
	}
	fmt.Fprintf(stdout, "   topology:  %s\n", agg.Topology)
	fmt.Fprintf(stdout, "   attack:    %s (%.2f)\n", agg.Attack.Label, agg.Attack.Confidence)
	if len(agg.Mixture) > 0 {
		parts := make([]string, len(agg.Mixture))
		for i, c := range agg.Mixture {
			parts[i] = fmt.Sprintf("%s (%.2f)", c.Label, c.Confidence)
		}
		fmt.Fprintf(stdout, "   mixture:   %s\n", strings.Join(parts, " + "))
	}
	if len(composedOf) > 0 {
		fmt.Fprintf(stdout, "   composed of: %s\n", strings.Join(composedOf, " + "))
	}
}

// runStream drives api.GenerateStream: in JSON mode it relays the raw
// NDJSON frames; in text mode it prints each window the moment the
// engine seals it, using the same renderers as the batch view.
func runStream(ctx context.Context, svc *api.Service, stdout io.Writer, req api.GenerateRequest, jsonOut, noRender bool) error {
	var (
		colors     *matrix.Dense
		labels     []string
		composedOf []string
		start      = time.Now()
	)
	return svc.GenerateStream(ctx, req, func(f api.StreamFrame) error {
		if jsonOut {
			return api.EncodeFrame(stdout, f)
		}
		switch f.Type {
		case api.FrameMeta:
			m := f.Meta
			labels = m.Labels
			composedOf = m.ComposedOf
			fmt.Fprintf(stdout, "scenario %s on %d hosts: streaming %d windows of %gs over %.1fs (workers=%d)\n",
				m.Scenario, m.Hosts, m.Windows, m.Window, m.Duration, m.Workers)
			fmt.Fprintf(stdout, "expected shape: %s\n", m.Shape)
			if len(m.Schedule) > 0 {
				fmt.Fprintln(stdout, "ground truth schedule:")
				for _, ph := range m.Schedule {
					fmt.Fprintf(stdout, "  [%5.1fs,%5.1fs) %s\n", ph.Start, ph.End, ph.Label)
				}
			}
			if !noRender {
				// The zone color grid matches the service's network layout
				// for the same host count.
				if zones, err := netsim.ScaledNetwork(m.Hosts).Zones(); err == nil {
					colors = zones.ColorMatrix()
				}
			}
		case api.FrameWindow:
			return printWindow(stdout, f.Window, labels, colors, noRender)
		case api.FrameSummary:
			s := f.Summary
			fmt.Fprintf(stdout, "\n── stream complete in %v: %d events, %d packets\n",
				time.Since(start).Round(time.Millisecond), s.Events, s.Packets)
			fmt.Fprintln(stdout, "── aggregate readings (sparse CSR path)")
			printAggregate(stdout, s.Aggregate, composedOf)
		}
		return nil
	})
}

// busiestWindow picks the non-empty window with the most packets
// (first wins ties), nil when every window is empty or there are
// none — an all-quiet run must not export an all-zero module.
func busiestWindow(res *api.GenerateResult) *api.WindowResult {
	var busiest *api.WindowResult
	sum := 0
	for i := range res.Windows {
		if res.Windows[i].Packets > sum {
			sum = res.Windows[i].Packets
			busiest = &res.Windows[i]
		}
	}
	return busiest
}

// listCatalog prints every registered scenario with its shape and
// description.
func listCatalog(svc *api.Service, stdout io.Writer) error {
	fmt.Fprintln(stdout, "scenario catalog:")
	for _, s := range svc.Catalog(context.Background()).Scenarios {
		fmt.Fprintf(stdout, "  %-12s %s\n", s.Name, s.Description)
		fmt.Fprintf(stdout, "  %-12s └ shape: %s\n", "", s.Shape)
	}
	return nil
}
