// Command benchguard is the allocation-regression gate: it compares
// the allocs/op of a fresh `go test -bench -benchmem` run against a
// committed baseline snapshot and fails when any shared benchmark
// regressed past the tolerance.
//
//	benchguard -baseline BENCH_PR7.json -current fresh.json
//
// Both files may be either raw `go test -bench` output or the
// test2json stream produced by `go test -json` (the committed
// trajectory snapshots use the latter); benchguard extracts the
// benchmark result lines from either. CPU-count suffixes
// ("BenchmarkFoo-8" vs "BenchmarkFoo-4") are stripped so a laptop
// baseline compares against a CI runner.
//
// allocs/op is the gated metric on purpose: unlike ns/op it is
// essentially machine-independent for a fixed workload, so a >10%
// jump is a real code change (a lost pooling path, a new per-row
// closure), not runner noise. The additive slack absorbs the
// handful of allocations the runtime itself moves between versions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a benchmark result line that carries -benchmem
// output, capturing the name and the allocs/op count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?\s(\d+)\s+allocs/op`)

// cpuSuffix is the trailing GOMAXPROCS marker on benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// testEvent is the subset of the test2json stream benchguard reads.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// parseAllocs extracts name → allocs/op from a bench output file,
// accepting raw bench output or a test2json stream. Sub-benchmarks
// keep their full slash-separated names. test2json chops one raw
// output line into several Output events (the name fragment ends the
// first event, the timings arrive in the next), so the JSON path
// reassembles the raw stream per package before scanning lines.
func parseAllocs(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var raw strings.Builder
	perPkg := map[string]*strings.Builder{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if json.Unmarshal([]byte(line), &ev) != nil || ev.Action != "output" {
				continue
			}
			b := perPkg[ev.Package]
			if b == nil {
				b = &strings.Builder{}
				perPkg[ev.Package] = b
			}
			b.WriteString(ev.Output)
			continue
		}
		raw.WriteString(line)
		raw.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, b := range perPkg {
		raw.WriteString(b.String())
	}

	out := map[string]int64{}
	for _, line := range strings.Split(raw.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		allocs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		out[name] = allocs
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed bench snapshot (raw or test2json)")
	current := flag.String("current", "", "fresh bench run to check (raw or test2json)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional allocs/op growth")
	slack := flag.Int64("slack", 64, "allowed absolute allocs/op growth on top of tolerance")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are both required")
		os.Exit(2)
	}

	base, err := parseAllocs(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseAllocs(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read current: %v\n", err)
		os.Exit(2)
	}

	var shared []string
	for name := range base {
		if _, ok := cur[name]; ok {
			shared = append(shared, name)
		}
	}
	if len(shared) == 0 {
		// An empty intersection means the gate is comparing nothing:
		// a renamed benchmark must not silently disable the guard.
		fmt.Fprintf(os.Stderr, "benchguard: no shared benchmarks between %s (%d) and %s (%d)\n",
			*baseline, len(base), *current, len(cur))
		os.Exit(1)
	}
	sort.Strings(shared)

	failed := 0
	fmt.Printf("%-60s %14s %14s %8s\n", "benchmark", "baseline", "current", "delta")
	for _, name := range shared {
		b, c := base[name], cur[name]
		limit := int64(float64(b)*(1+*tolerance)) + *slack
		delta := "ok"
		if b > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*float64(c-b)/float64(b))
		}
		mark := ""
		if c > limit {
			mark = "  REGRESSED"
			failed++
		}
		fmt.Printf("%-60s %14d %14d %8s%s\n", name, b, c, delta, mark)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) regressed past %.0f%%+%d allocs/op\n",
			failed, *tolerance*100, *slack)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d benchmark(s) within %.0f%%+%d allocs/op of baseline\n",
		len(shared), *tolerance*100, *slack)
}
