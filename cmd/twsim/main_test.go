package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"repro/internal/api"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// timingLine matches the two wall-clock report lines whose contents
// vary run to run; goldens store them with the numbers blanked.
var (
	generatedLine = regexp.MustCompile(`^generated in .* events/sec, workers=(\d+)\)$`)
	sparseLine    = regexp.MustCompile(`^(\s*sparse timings:) .*$`)
)

// normalize blanks the nondeterministic (timing) parts of twsim
// output so the rest can be compared byte for byte.
func normalize(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if m := generatedLine.FindStringSubmatch(line); m != nil {
			lines[i] = "generated in DUR (RATE events/sec, workers=" + m[1] + ")"
			continue
		}
		if m := sparseLine.FindStringSubmatch(line); m != nil {
			lines[i] = m[1] + " profile+classify DUR"
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares normalized output against the named golden
// file, rewriting it under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := normalize(out)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing scenario %q", name)
		}
	}
	checkGolden(t, "list.golden", out)
}

// TestRunScanDeterministic drives a full small generation run on one
// worker and pins the complete (timing-normalized) output: catalog
// metadata, per-window readings, and the sparse CSR aggregate block.
func TestRunScanDeterministic(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-scenario", "scan", "-seed", "1", "-duration", "4", "-window", "2",
		"-workers", "1", "-plain", "-norender",
	}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "aggregate readings (sparse CSR path)") {
		t.Error("missing sparse aggregate block")
	}
	if !strings.Contains(out, "sparse timings: profile+classify") {
		t.Error("missing sparse-path timing report")
	}
	checkGolden(t, "scan.golden", out)
}

// TestRunSameOutputAnyWorkers pins the CLI-level determinism claim:
// identical (normalized) output on 1 worker and 4 workers.
func TestRunSameOutputAnyWorkers(t *testing.T) {
	outs := make([]string, 2)
	for i, workers := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{
			"-scenario", "ddos", "-seed", "7", "-duration", "8", "-window", "4",
			"-workers", workers, "-plain", "-norender", "-scale", "3",
		}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		out := normalize(buf.String())
		// The workers count itself is expected to differ.
		out = strings.ReplaceAll(out, "workers="+workers, "workers=N")
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Error("twsim output differs between 1 and 4 workers")
	}
}

// TestRunSpecComposed pins the acceptance flow: a composed spec runs
// end to end on the sparse CSR path, prints the merged ground-truth
// schedule, and the mixture classifier names the component shapes.
func TestRunSpecComposed(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-spec", "overlay(background, sequence(scan, ddos))",
		"-seed", "42", "-workers", "1", "-plain", "-norender",
	}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ground truth schedule:", // merged phases survive composition
		"command and control",    // … including the DDoS components
		"mixture:",               // the disentangle reading
		"composed of: background + scan + ddos",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("composed run output missing %q", want)
		}
	}
	mixLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mixture:") {
			mixLine = line
		}
	}
	for _, shape := range []string{"background", "scan", "ddos"} {
		if !strings.Contains(mixLine, shape) {
			t.Errorf("mixture reading %q missing component %q", mixLine, shape)
		}
	}
	checkGolden(t, "spec_composed.golden", out)
}

// TestRunSpecFromFile: -spec also accepts a file holding the
// expression.
func TestRunSpecFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.spec")
	if err := os.WriteFile(path, []byte("overlay(background, sequence(scan, ddos))\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var inline, fromFile bytes.Buffer
	base := []string{"-seed", "42", "-workers", "1", "-plain", "-norender"}
	if err := run(context.Background(), append([]string{"-spec", "overlay(background, sequence(scan, ddos))"}, base...), &inline); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-spec", path}, base...), &fromFile); err != nil {
		t.Fatal(err)
	}
	if normalize(inline.String()) != normalize(fromFile.String()) {
		t.Error("file spec output differs from inline spec output")
	}
}

// TestRunSpecSameOutputAnyWorkers extends the CLI determinism pin to
// composed scenarios.
func TestRunSpecSameOutputAnyWorkers(t *testing.T) {
	outs := make([]string, 2)
	for i, workers := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{
			"-spec", "sequence(scan@4s, amplify(ddos, 2))", "-seed", "3",
			"-duration", "12", "-window", "4", "-workers", workers, "-plain", "-norender",
		}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		out := normalize(buf.String())
		out = strings.ReplaceAll(out, "workers="+workers, "workers=N")
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Error("composed twsim output differs between 1 and 4 workers")
	}
}

// TestRunUnknownScenarioListsCatalog pins the error path: an unknown
// -scenario must fail (main exits 1) with the available catalog names
// in the message.
func TestRunUnknownScenarioListsCatalog(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-scenario", "nope"}, &buf)
	if err == nil {
		t.Fatal("unknown scenario did not error")
	}
	for _, name := range []string{"background", "scan", "attack", "ddos", "worm", "exfil", "flashcrowd", "beacon"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q missing catalog name %q", err, name)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("error path wrote %q to stdout; the message belongs on stderr", buf.String())
	}
	checkGolden(t, "unknown_scenario.golden", err.Error())
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown scenario", []string{"-scenario", "nope"}},
		{"broken spec", []string{"-spec", "overlay(background"}},
		{"unknown spec name", []string{"-spec", "overlay(background, nope)"}},
		{"bad duration", []string{"-duration", "-1"}},
		{"bad rate", []string{"-rate", "0", "-scenario", "background"}},
		{"bad scale", []string{"-scale", "0"}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), tc.args, &buf); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(buf.String(), "Usage of twsim") {
		t.Error("-h did not print usage")
	}
}

func TestRunExportWritesModule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "module.json")
	var buf bytes.Buffer
	args := []string{
		"-scenario", "ddos", "-seed", "2", "-duration", "4", "-window", "2",
		"-workers", "1", "-plain", "-norender", "-export", path,
	}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("export file not written: %v", err)
	}
	if !strings.Contains(string(data), "Captured Ddos Traffic") {
		t.Error("exported module missing expected name")
	}
}

// TestRunJSONGolden pins the -json output: the api wire form of a
// deterministic run, with the (nondeterministic) timing fields
// zeroed before comparison.
func TestRunJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-json", "-scenario", "scan", "-seed", "1", "-duration", "4", "-window", "2",
		"-workers", "1", "-plain",
	}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	var res api.GenerateResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"aggregate"`) || !strings.Contains(buf.String(), `"timings"`) ||
		!strings.Contains(buf.String(), `"mixture"`) {
		t.Error("-json output missing the aggregate block fields")
	}
	if res.Version != api.Version || res.Spec != "scan" || res.CacheHit {
		t.Errorf("result header = %+v", res)
	}
	res.Timings = api.Timings{}
	normalized, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scan_json.golden", string(normalized))
}

// TestRunJSONMatchesTextRun: the JSON and text views describe the
// same run — event and packet counts agree.
func TestRunJSONMatchesTextRun(t *testing.T) {
	base := []string{"-scenario", "scan", "-seed", "1", "-duration", "4", "-window", "2", "-workers", "1", "-plain"}
	var jsonBuf, textBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-json"}, base...), &jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-norender"}, base...), &textBuf); err != nil {
		t.Fatal(err)
	}
	var res api.GenerateResult
	if err := json.Unmarshal(jsonBuf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("scenario scan on %d hosts: %d events, %d packets", res.Hosts, res.Events, res.Packets)
	if !strings.Contains(textBuf.String(), want) {
		t.Errorf("text view does not open with %q", want)
	}
}

// TestRunCancelledContext: the CLI's request context (Ctrl-C in
// main) aborts the run.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-scenario", "scan", "-plain", "-norender"}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRunExportSkipsEmptyRun: a run whose windows hold no packets
// must not export an all-zero module.
func TestRunExportSkipsEmptyRun(t *testing.T) {
	res := &api.GenerateResult{Windows: []api.WindowResult{
		{Index: 0, Packets: 0}, {Index: 1, Packets: 0},
	}}
	if w := busiestWindow(res); w != nil {
		t.Errorf("busiestWindow over empty windows = %+v, want nil", w)
	}
	res.Windows[1].Packets = 3
	if w := busiestWindow(res); w == nil || w.Index != 1 {
		t.Errorf("busiestWindow = %+v, want window 1", w)
	}
}

// TestRunStreamTextMatchesBatchWindows: the stream mode's per-window
// text is identical to the batch run's, with the header and footer
// being the only differences — the two modes share printWindow.
func TestRunStreamTextMatchesBatchWindows(t *testing.T) {
	args := []string{"-scenario", "scan", "-seed", "1", "-duration", "8", "-window", "2", "-workers", "2", "-plain"}
	var batch, stream bytes.Buffer
	if err := run(context.Background(), args, &batch); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-stream"}, args...), &stream); err != nil {
		t.Fatal(err)
	}

	windowsOf := func(out string) string {
		lines := strings.Split(out, "\n")
		var kept []string
		keeping := false
		for _, line := range lines {
			if strings.HasPrefix(line, "── window") {
				keeping = true
			}
			if strings.HasPrefix(line, "── aggregate") || strings.HasPrefix(line, "── stream complete") {
				keeping = false
			}
			if keeping {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	bw, sw := windowsOf(batch.String()), windowsOf(stream.String())
	if bw == "" {
		t.Fatal("batch output has no window sections")
	}
	if bw != sw {
		t.Errorf("stream windows differ from batch windows:\n--- batch ---\n%s\n--- stream ---\n%s", bw, sw)
	}
	if !strings.Contains(stream.String(), "streaming 4 windows of 2s") {
		t.Errorf("stream header missing: %q", stream.String())
	}
	if !strings.Contains(stream.String(), "── stream complete") {
		t.Error("stream summary footer missing")
	}
}

// TestRunStreamJSONEmitsFrames: -stream -json relays the NDJSON
// frame stream — decodable, meta first, windows in order, summary
// last.
func TestRunStreamJSONEmitsFrames(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-stream", "-json", "-scenario", "ddos", "-seed", "1", "-duration", "20", "-window", "5", "-plain",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	dec := api.NewFrameDecoder(&out)
	var types []string
	next := 0
	for {
		f, derr := dec.Next()
		if derr != nil {
			break
		}
		types = append(types, f.Type)
		if f.Type == api.FrameWindow {
			if f.Window.Index != next {
				t.Fatalf("window %d out of order (want %d)", f.Window.Index, next)
			}
			next++
		}
	}
	if len(types) != 6 || types[0] != api.FrameMeta || types[len(types)-1] != api.FrameSummary {
		t.Fatalf("frame sequence = %v, want meta, 4 windows, summary", types)
	}
}

// TestRunStreamExportRejected: -export needs the whole result, so
// combining it with -stream is an explicit error, not silence.
func TestRunStreamExportRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mod.json")
	err := run(context.Background(), []string{"-stream", "-export", out, "-duration", "4"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-export") {
		t.Fatalf("err = %v, want an -export/-stream conflict", err)
	}
	if _, serr := os.Stat(out); !errors.Is(serr, os.ErrNotExist) {
		t.Error("rejected run still wrote the export file")
	}
}

// TestRunStreamCancelledContext: a cancelled context aborts the
// stream with the context's error, like the batch path.
func TestRunStreamCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-stream", "-scenario", "background", "-duration", "3600", "-rate", "2", "-norender"}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
