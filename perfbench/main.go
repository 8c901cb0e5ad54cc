// Command perfbench is the repository's benchmark. It drives a freshly
// built twserve over loopback HTTP with one of four named classroom
// workloads and prints the end-to-end metrics, or, with --trace 1,
// replays the workloads through an in-process, span-recording stack
// and prints the per-layer metrics. See README.md for the workloads,
// the metrics and the baselines.
//
//	bash perfbench/run.sh --workload lesson --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lesson, lesson-proxy, cold or players")
	seed := flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "timed-phase size in seconds of a 2-CPU host")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and prints per-layer metrics")
	bin := flag.String("twserve", "", "path of the twserve binary")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	if *seconds < 1 {
		fail(errors.New("--seconds must be at least 1"))
	}
	var (
		rep report
		err error
	)
	switch *trace {
	case 0:
		if *bin == "" {
			fail(errors.New("-twserve is required"))
		}
		rep, err = runE2E(w, *seed, *seconds, *bin)
	case 1:
		rep, err = runTraced(*seed, *seconds)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timedCap bounds the timed phase at this many times --seconds.
const timedCap = 4 * time.Second

// setupReps is how many times each run sets up its servers; setup_s
// is the median.
const setupReps = 7

// fleet is the set of twserve processes one run measures: one direct
// server, or two backends and the proxy in front of them.
type fleet struct {
	servers  []*server
	front    string
	backends []string
}

func (f *fleet) stop() {
	for _, s := range f.servers {
		s.stop()
	}
}

// startFleet execs the workload's servers and waits until each is
// ready.
func startFleet(w workload, bin string, hc *http.Client) (*fleet, error) {
	f := &fleet{}
	start := func(flags ...string) (*server, error) {
		s, err := startServer(bin, flags...)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, s)
		return s, s.waitReady(hc, 30*time.Second)
	}
	if !w.Proxy {
		s, err := start(w.Flags...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front = s.URL
		return f, nil
	}
	for range 2 {
		s, err := start(w.Flags...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, s.URL)
	}
	s, err := start("-proxy", strings.Join(f.backends, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = s.URL
	return f, nil
}

// prime sends the plan's set-up requests in order.
func prime(d *driver, reqs []req) error {
	for _, r := range reqs {
		if res, _ := d.timed(r.Kind, r.Method, r.Path, r.Body); !res.OK {
			return fmt.Errorf("priming: %s", res.Why)
		}
	}
	return nil
}

// setUp starts the fleet and primes it setupReps times, keeping the
// last one, and returns each set-up's wall time.
func setUp(w workload, p plan, bin string, hc *http.Client) (*fleet, []float64, error) {
	var times []float64
	for {
		t0 := time.Now()
		f, err := startFleet(w, bin, hc)
		if err != nil {
			return nil, nil, err
		}
		if err := prime(&driver{hc: hc, base: f.front}, p.Prime); err != nil {
			f.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupReps {
			return f, times, nil
		}
		f.stop()
		hc.CloseIdleConnections()
	}
}

// references captures the body every checked request must return: the
// direct server's cache hit for generate and analyze, and its render
// for module. Behind a proxy it asks the backends directly, taking
// the body from the one whose cache holds the entry.
func references(front string, backends []string, hc *http.Client, reqs []req) (map[string][]byte, error) {
	direct := []string{front}
	if len(backends) > 0 {
		direct = backends
	}
	refs := make(map[string][]byte, len(reqs))
next:
	for _, r := range reqs {
		for _, base := range direct {
			d := &driver{hc: hc, base: base}
			status, hdr, data, err := d.send(r.Method, r.Path, r.Body)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("reference %s %s: status %d: %v", r.Path, r.Body, status, err)
			}
			if r.Kind == "module" || hdr.Get("X-Cache") == "hit" {
				refs[r.key()] = data
				continue next
			}
		}
		return nil, fmt.Errorf("reference %s %s: no server holds it cached", r.Path, r.Body)
	}
	return refs, nil
}

// fleetCPU sums the CPU time of every server process.
func fleetCPU(f *fleet) (time.Duration, error) {
	var total time.Duration
	for _, s := range f.servers {
		c, err := procCPU(s.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// runE2E is one end-to-end run: set up, warm up to the plateau, send
// the timed sequence, check the outputs and report.
func runE2E(w workload, seed int64, seconds int, bin string) (report, error) {
	p := w.Build(seed, runSize(w, seconds))
	hc := newHTTPClient(w.Clients)
	f, setupTimes, err := setUp(w, p, bin, hc)
	if err != nil {
		return report{}, err
	}
	defer f.stop()

	d := &driver{hc: hc, base: f.front}
	if len(p.Check) > 0 {
		if d.refs, err = references(f.front, f.backends, hc, p.Check); err != nil {
			return report{}, err
		}
	}
	var coldSample []req
	var coldBodies [][]byte
	if w.Name == "cold" {
		list := p.Clients[0]
		coldSample = []req{list[0], list[len(list)/2], list[len(list)-1]}
		coldBodies = make([][]byte, len(coldSample))
		d.keep = make(map[string]*[]byte)
		for i, r := range coldSample {
			d.keep[r.key()] = &coldBodies[i]
		}
	}

	rates, warmFailed := d.warmUp(w.Clients, p.Warm)
	submitsBefore := d.submits.Load()
	cpu0, err := fleetCPU(f)
	if err != nil {
		return report{}, err
	}
	steal0, total0, stealErr := hostTicks()
	results, elapsed := d.runLists(p.Clients, time.Duration(seconds)*timedCap)
	steal1, total1, _ := hostTicks()
	cpu1, err := fleetCPU(f)
	if err != nil {
		return report{}, err
	}

	var checkErr error
	switch w.Name {
	case "cold":
		checkErr = checkCold(coldSample, coldBodies)
	case "players":
		checkErr = checkMastery(d, d.submits.Load()-submitsBefore)
	}
	var hwm int64
	for _, s := range f.servers {
		b, err := procHWM(s.pid())
		if err != nil {
			return report{}, err
		}
		hwm += b
	}

	fmt.Printf("workload %s: seed %d, %d clients, %d timed requests, warm-up %d slices %s req/s\n",
		w.Name, seed, w.Clients, len(results), len(rates), fmtRates(rates))
	if stealErr == nil && total1 > total0 {
		fmt.Printf("  host steal %.1f%% of CPU time during the timed phase\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if sent := len(results); sent < p.timedCount() {
		fmt.Fprintf(os.Stderr, "timed phase cut at %v: %d of %d requests sent\n", time.Duration(seconds)*timedCap, sent, p.timedCount())
	}
	rep := summarize(w, results, elapsed, cpu1-cpu0, hwm, setupTimes)
	for _, r := range warmFailed {
		fmt.Fprintln(os.Stderr, "warm-up failure:", r.Why)
	}
	failed := len(warmFailed)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "check failed:", checkErr)
		failed++
	}
	rep.Attempted += failed
	rep.Failed += failed
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// checkMastery asks for the educator dashboard and checks its attempt
// totals against the submits sent.
func checkMastery(d *driver, submits int64) error {
	status, _, data, err := d.send("GET", "/v1/player/mastery", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("mastery: status %d: %v", status, err)
	}
	var m struct {
		Items []struct {
			Attempts int64 `json:"attempts"`
		} `json:"items"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("mastery: %w", err)
	}
	var total int64
	for _, it := range m.Items {
		total += it.Attempts
	}
	if total != submits {
		return fmt.Errorf("mastery counts %d attempts, %d submits were answered", total, submits)
	}
	return nil
}

// sortedKeys returns the metric names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtRates(rates []float64) string {
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = fmt.Sprintf("%.0f", r)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// summarize computes the end-to-end metrics and prints the per-kind
// breakdown with the sample count behind every percentile.
func summarize(w workload, results []result, elapsed, cpu time.Duration, hwm int64, setupTimes []float64) report {
	var lats []float64
	byKind := make(map[string][]float64)
	ok, good := 0, 0
	for _, r := range results {
		if !r.OK {
			continue
		}
		ok++
		l := ms(r.Lat)
		lats = append(lats, l)
		byKind[r.Kind] = append(byKind[r.Kind], l)
		if l <= w.LimitMS {
			good++
		}
	}
	failed := len(results) - ok
	shown := 0
	for _, r := range results {
		if !r.OK && shown < 5 {
			fmt.Fprintln(os.Stderr, "failed:", r.Kind, r.Why)
			shown++
		}
	}
	sort.Float64s(lats)
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return median(byKind[kinds[i]]) < median(byKind[kinds[j]]) })
	for _, k := range kinds {
		xs := byKind[k]
		sort.Float64s(xs)
		fmt.Printf("  %-9s n=%-6d share=%5.1f%%  p50=%8.3fms  p90=%8.3fms\n",
			k, len(xs), 100*float64(len(xs))/float64(max(ok, 1)), percentile(xs, 50), percentile(xs, 90))
	}
	for _, q := range []float64{50, 90} {
		fmt.Printf("  p%.0f over n=%d samples, %d above it\n", q, len(lats), beyond(len(lats), q))
	}
	fmt.Printf("  setup runs %v s, timed phase %.3f s, server CPU %.3f s\n", setupTimes, elapsed.Seconds(), cpu.Seconds())

	attempted := len(results)
	return report{
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupTimes), "s"},
			"goodput_rps":    {float64(good) / elapsed.Seconds(), "1/s"},
			"p50_ms":         {percentile(lats, 50), "ms"},
			"p90_ms":         {percentile(lats, 90), "ms"},
			"ok_pct":         {100 * float64(ok) / float64(max(attempted, 1)), "%"},
			"cpu_ms_per_req": {ms(cpu) / float64(max(attempted, 1)), "ms"},
			"peak_rss_mb":    {float64(hwm) / (1 << 20), "MB"},
		},
	}
}
