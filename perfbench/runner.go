package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one HTTP request.
type result struct {
	Kind string
	Lat  time.Duration
	OK   bool
	// Why says what failed, for the report.
	Why string
}

// driver sends a workload's requests to one base URL and checks each
// response.
type driver struct {
	hc   *http.Client
	base string
	// refs maps a request key to the body every response to it must
	// equal byte for byte; requests without an entry need only a 200.
	refs map[string][]byte
	// keep maps a request key to where its response body is stored
	// for a check after the timed phase.
	keep   map[string]*[]byte
	keepMu sync.Mutex
	// submits counts submits answered 200.
	submits atomic.Int64
}

// newHTTPClient returns a keep-alive client with one idle connection
// per client goroutine.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns + 2,
			MaxIdleConnsPerHost: conns + 2,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// send issues one request and returns the status, header and body.
func (d *driver) send(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(r)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// timed sends one request and checks it: status 200 and, when a
// reference exists, a byte-identical body.
func (d *driver) timed(kind, method, path string, body []byte) (result, []byte) {
	t0 := time.Now()
	status, _, data, err := d.send(method, path, body)
	res := result{Kind: kind, Lat: time.Since(t0)}
	switch {
	case err != nil:
		res.Why = err.Error()
	case status != http.StatusOK:
		res.Why = fmt.Sprintf("%s %s: status %d: %.200s", method, path, status, data)
	default:
		res.OK = true
	}
	return res, data
}

// exec runs one request (three for a turn) and appends its results.
func (d *driver) exec(r req, out []result) []result {
	if r.Kind == "turn" {
		return d.turn(r, out)
	}
	res, data := d.timed(r.Kind, r.Method, r.Path, r.Body)
	if res.OK && d.refs != nil {
		if ref, ok := d.refs[r.key()]; ok && !bytes.Equal(ref, data) {
			res.OK, res.Why = false, fmt.Sprintf("%s %s %s: body differs from the reference", r.Method, r.Path, r.Body)
		}
	}
	if res.OK && d.keep != nil {
		if dst, ok := d.keep[r.key()]; ok {
			d.keepMu.Lock()
			*dst = data
			d.keepMu.Unlock()
		}
	}
	return append(out, res)
}

// turn is one quiz round: start an attempt on a figure pattern, submit
// the drawn answer, read progress. A failed step fails the steps after
// it, so every turn counts three attempted requests.
func (d *driver) turn(r req, out []result) []result {
	base := "/v1/player/" + r.Player
	start, data := d.timed("start", "POST", base+"/attempt", mustJSON(map[string]any{"pattern": r.Pattern}))
	var att struct {
		Attempt int64    `json:"attempt"`
		Options []string `json:"options"`
	}
	if start.OK {
		if err := json.Unmarshal(data, &att); err != nil || len(att.Options) == 0 {
			start.OK, start.Why = false, fmt.Sprintf("start attempt for %s: bad body %.200s", r.Player, data)
		}
	}
	out = append(out, start)
	if !start.OK {
		return append(out,
			result{Kind: "submit", Why: "attempt not started"},
			result{Kind: "progress", Why: "attempt not started"})
	}
	path := base + "/attempt/" + strconv.FormatInt(att.Attempt, 10)
	sub, _ := d.timed("submit", "POST", path, mustJSON(map[string]any{"answer": r.Answer % len(att.Options)}))
	if sub.OK {
		d.submits.Add(1)
	}
	prog, _ := d.timed("progress", "GET", base+"/progress", nil)
	return append(out, sub, prog)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // callers marshal literal maps of strings and numbers
	}
	return b
}

// runLists drives each list from its own goroutine, closed loop, and
// returns every result and the wall time until the last list ended.
// A list still running at the deadline stops there: its remaining
// requests are not sent, which keeps a pathologically slow program
// inside the run's time limit.
func (d *driver) runLists(lists [][]req, deadline time.Duration) ([]result, time.Duration) {
	outs := make([][]result, len(lists))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]result, 0, 3*len(list))
			for _, r := range list {
				if time.Since(t0) > deadline {
					break
				}
				out = d.exec(r, out)
			}
			outs[i] = out
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []result
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, elapsed
}

// Warm-up bounds. A fresh server runs slower while its heap, caches
// and connections settle, and a shared host's speed wanders; warm-up
// runs until throughput over the last plateauSlices slices varies by
// less than plateauSpread, between warmMin and warmMax.
const (
	warmSlice     = 500 * time.Millisecond
	warmMin       = 2 * time.Second
	warmMax       = 4 * time.Second
	plateauSlices = 4
	plateauSpread = 0.06
)

// warmUp cycles the stateless warm-up requests from the given number
// of clients until throughput levels off. It returns the per-slice
// request rates and every failed result.
func (d *driver) warmUp(clients int, reqs []req) ([]float64, []result) {
	if len(reqs) == 0 {
		return nil, nil
	}
	var done atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var failed []result
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []result
			for i := c * len(reqs) / clients; !stop.Load(); i++ {
				out = d.exec(reqs[i%len(reqs)], out[:0])
				for _, r := range out {
					if !r.OK {
						mu.Lock()
						failed = append(failed, r)
						mu.Unlock()
					}
				}
				done.Add(int64(len(out)))
			}
		}()
	}
	var rates []float64
	t0 := time.Now()
	last := int64(0)
	for {
		time.Sleep(warmSlice)
		n := done.Load()
		rates = append(rates, float64(n-last)/warmSlice.Seconds())
		last = n
		if el := time.Since(t0); el >= warmMax || (el >= warmMin && plateaued(rates)) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	return rates, failed
}

// plateaued reports whether the last plateauSlices rates lie within
// plateauSpread of their mean.
func plateaued(rates []float64) bool {
	if len(rates) < plateauSlices {
		return false
	}
	last := rates[len(rates)-plateauSlices:]
	lo, hi := last[0], last[0]
	for _, r := range last {
		lo, hi = min(lo, r), max(hi, r)
	}
	m := mean(last)
	return m > 0 && (hi-lo)/m < plateauSpread
}
