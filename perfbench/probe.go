package main

// This file is the benchmark's only caller of repro/internal: the
// in-process recompute behind the cold output check, and the traced
// pass that replays every workload through an in-process stack with
// a span at each layer boundary.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netsim"
	"repro/internal/patterns"
	"repro/internal/serve"
)

// checkCold recomputes each sampled cold request in-process and checks
// that the served body matches it once the wall-clock timings are
// zeroed.
func checkCold(sample []req, bodies [][]byte) error {
	svc := api.New()
	for i, r := range sample {
		if bodies[i] == nil {
			return fmt.Errorf("cold %s: no served body kept", r.Body)
		}
		var gr api.GenerateRequest
		if err := json.Unmarshal(r.Body, &gr); err != nil {
			return err
		}
		res, err := svc.Generate(context.Background(), gr)
		if err != nil {
			return fmt.Errorf("cold recompute %s: %w", r.Body, err)
		}
		res.Timings = api.Timings{}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := sameJSONWithoutTimings(bodies[i], want); err != nil {
			return fmt.Errorf("cold %s: %w", r.Body, err)
		}
	}
	return nil
}

// sameJSONWithoutTimings compares two JSON documents as values after
// zeroing the served one's timings.
func sameJSONWithoutTimings(served, want []byte) error {
	var a, b map[string]any
	if err := json.Unmarshal(served, &a); err != nil {
		return fmt.Errorf("served body: %w", err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		return err
	}
	a["timings"] = b["timings"]
	if !reflect.DeepEqual(a, b) {
		return errors.New("served body differs from the in-process recompute")
	}
	return nil
}

// tracedCore wraps the api.Core a mux serves in a span per call,
// named layer + "." + operation.
type tracedCore struct {
	api.Core
	rec   *recorder
	layer string
}

func (c *tracedCore) Generate(ctx context.Context, r api.GenerateRequest) (*api.GenerateResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.Generate(o.ctx(ctx), r)
	o.end(c.layer+".generate", err != nil, res != nil && res.CacheHit, 0)
	return res, err
}

func (c *tracedCore) Analyze(ctx context.Context, r api.AnalyzeRequest) (*api.AnalyzeResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.Analyze(o.ctx(ctx), r)
	o.end(c.layer+".analyze", err != nil, res != nil && res.CacheHit, 0)
	return res, err
}

func (c *tracedCore) Module(ctx context.Context, r api.ModuleRequest) (*core.Module, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.Module(o.ctx(ctx), r)
	o.end(c.layer+".module", err != nil, false, 0)
	return res, err
}

func (c *tracedCore) PlayerAttemptStart(ctx context.Context, r api.AttemptStartRequest) (*api.AttemptResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.PlayerAttemptStart(o.ctx(ctx), r)
	o.end("player.start", err != nil, false, 0)
	return res, err
}

func (c *tracedCore) PlayerAttemptSubmit(ctx context.Context, r api.AttemptSubmitRequest) (*api.SubmitResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.PlayerAttemptSubmit(o.ctx(ctx), r)
	replayed := 0
	if res != nil {
		replayed = res.Answered - 1
	}
	o.end("player.submit", err != nil, false, replayed)
	return res, err
}

func (c *tracedCore) PlayerProgress(ctx context.Context, r api.ProgressRequest) (*api.ProgressResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.PlayerProgress(o.ctx(ctx), r)
	o.end("player.progress", err != nil, false, 0)
	return res, err
}

func (c *tracedCore) PlayerMastery(ctx context.Context) (*api.MasteryResult, error) {
	o := c.rec.begin(ctx)
	res, err := c.Core.PlayerMastery(o.ctx(ctx))
	o.end("player.mastery", err != nil, false, 0)
	return res, err
}

// listen serves h on a loopback port with twserve's server settings
// and returns its base URL and a stop function that waits for the
// server to close.
func listen(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := serve.NewServer(l.Addr().String(), h)
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l) // returns http.ErrServerClosed once stop closes it
		close(done)
	}()
	return "http://" + l.Addr().String(), func() {
		_ = srv.Close() // closing an in-process test server cannot fail in a way that matters here
		<-done
	}, nil
}

// pass is one workload's part of the traced run.
type pass struct {
	results []result
	spans   spanSet
	// overheadPct is the traced quarters' wall time over the untraced
	// ones', minus one, in percent.
	overheadPct float64
	errs        []error
}

// segments splits every client list into n consecutive parts.
func segments(lists [][]req, n int) [][][]req {
	out := make([][][]req, n)
	for _, l := range lists {
		for q := range n {
			out[q] = append(out[q], l[q*len(l)/n:(q+1)*len(l)/n])
		}
	}
	return out
}

// tracedSegment reports whether segment q of the alternation runs
// traced: untraced, traced, traced, untraced, repeated, so drift that
// is linear in time falls equally on both sides of the overhead
// comparison.
func tracedSegment(q int) bool { return q%4 == 1 || q%4 == 2 }

// overheadSegments is the number of alternating segments.
const overheadSegments = 8

// alternate runs the lists in overheadSegments parts, switching
// tracing as tracedSegment says, and keeps the traced parts' spans.
func alternate(rec *recorder, d *driver, lists [][]req) pass {
	var p pass
	var wall [2]time.Duration
	for q, part := range segments(lists, overheadSegments) {
		on := tracedSegment(q)
		rec.on.Store(on)
		res, el := d.runLists(part, time.Hour)
		if on {
			wall[1] += el
		} else {
			wall[0] += el
		}
		p.results = append(p.results, res...)
	}
	rec.on.Store(false)
	p.spans = rec.take()
	p.overheadPct = 100 * (float64(wall[1])/float64(wall[0]) - 1)
	return p
}

// tracedSize is the traced run's request count for a workload: half
// of an end-to-end run's, so the four workloads' parts together last
// about twice --seconds.
func tracedSize(w workload, seconds int) int { return max(8, runSize(w, seconds)/2) }

// runTraced runs every workload's part of the traced pass and reports
// the per-layer metrics.
func runTraced(seed int64, seconds int) (report, error) {
	m := make(map[string]metric)
	var all []result
	var errs []error
	var spans []span
	for _, w := range workloads {
		var p pass
		var err error
		switch w.Name {
		case "lesson":
			p, err = tracedLesson(w, seed, seconds, m)
		case "lesson-proxy":
			p, err = tracedProxy(w, seed, seconds, m)
		case "cold":
			p, err = tracedCold(w, seed, seconds, m)
		case "players":
			p, err = tracedPlayers(w, seed, seconds, m)
		}
		if err != nil {
			return report{}, fmt.Errorf("traced %s: %w", w.Name, err)
		}
		m["overhead."+w.Name+"_pct"] = metric{p.overheadPct, "%"}
		fmt.Printf("traced %-12s %6d requests, %6d spans, tracing overhead %+.1f%%\n",
			w.Name, len(p.results), len(p.spans), p.overheadPct)
		all = append(all, p.results...)
		errs = append(errs, p.errs...)
		spans = append(spans, p.spans...)
	}
	failed := failedByLayer(spans)
	for _, layer := range []string{"serve", "api", "cluster", "player", "netsim"} {
		m[layer+".failed"] = metric{float64(failed[layer]), "count"}
	}
	rep := report{Attempted: len(all) + len(errs), Metrics: m}
	for _, r := range all {
		if !r.OK {
			rep.Failed++
			if rep.Failed <= 5 {
				fmt.Printf("failed: %s %s\n", r.Kind, r.Why)
			}
		}
	}
	for _, err := range errs {
		fmt.Println("check failed:", err)
	}
	rep.Failed += len(errs)
	rep.Correct = rep.Failed == 0
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-28s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return rep, nil
}

// tracedLesson serves the lesson from one in-process service. Beyond
// the spans it times the api layer alone: a hit plus its JSON encode,
// called directly, with the allocations they make.
func tracedLesson(w workload, seed int64, seconds int, m map[string]metric) (pass, error) {
	rec := newRecorder()
	svc := api.New(api.WithCacheCapacity(1024))
	url, stop, err := listen(rec.handler("serve.direct", serve.NewMux(&tracedCore{Core: svc, rec: rec, layer: "api"})))
	if err != nil {
		return pass{}, err
	}
	defer stop()
	pl := w.Build(seed, tracedSize(w, seconds))
	hc := newHTTPClient(w.Clients)
	defer hc.CloseIdleConnections()
	d := &driver{hc: hc, base: url}
	if err := prime(d, pl.Prime); err != nil {
		return pass{}, err
	}
	if d.refs, err = references(url, nil, hc, pl.Check); err != nil {
		return pass{}, err
	}
	c0 := svc.CacheStats()
	p := alternate(rec, d, pl.Clients)
	c1 := svc.CacheStats()

	sp := p.spans
	m["serve.request_us"] = metric{median(sp.named("serve.direct").durs(time.Microsecond)), "us"}
	m["serve.self_us"] = metric{median(serveSelf(sp, "serve.direct")), "us"}
	m["serve.resp_bytes"] = metric{mean(sp.named("serve.direct").counts()), "B"}
	hits := sp.named("api.generate").where(func(s span) bool { return s.Hit })
	m["api.generate_hit_us"] = metric{median(hits.durs(time.Microsecond)), "us"}
	m["modules.render_us"] = metric{median(sp.named("api.module").durs(time.Microsecond)), "us"}
	lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses)
	m["api.cache_hit_ratio"] = metric{float64(c1.Hits-c0.Hits) / float64(max(lookups, 1)), "ratio"}

	// The api layer alone: each lesson generate as a direct call, then
	// its encode, one at a time.
	gens, _, _ := lessonCycle(seed)
	reqs := make([]api.GenerateRequest, len(gens))
	for i, g := range gens {
		if err := json.Unmarshal(g.Body, &reqs[i]); err != nil {
			return pass{}, err
		}
	}
	ctx := context.Background()
	var encode []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range 4 {
		for _, gr := range reqs {
			res, err := svc.Generate(ctx, gr)
			if err != nil {
				return pass{}, err
			}
			t0 := time.Now()
			if err := api.WriteJSON(io.Discard, res); err != nil {
				return pass{}, err
			}
			encode = append(encode, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	runtime.ReadMemStats(&ms1)
	m["api.encode_us"] = metric{median(encode), "us"}
	m["api.allocs_per_req"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(len(encode)), "count"}
	return p, nil
}

// tracedProxy serves the lesson through an in-process cluster proxy
// over two in-process backends.
func tracedProxy(w workload, seed int64, seconds int, m map[string]metric) (pass, error) {
	rec := newRecorder()
	var backends []string
	for i := range 2 {
		h := serve.NewMux(api.New(api.WithCacheCapacity(1024)))
		url, stop, err := listen(rec.handler(fmt.Sprintf("serve.backend.%d", i), h))
		if err != nil {
			return pass{}, err
		}
		defer stop()
		backends = append(backends, url)
	}
	cl, err := cluster.New(backends)
	if err != nil {
		return pass{}, err
	}
	url, stop, err := listen(rec.handler("serve.proxy", serve.NewProxyMux(&tracedCore{Core: cl, rec: rec, layer: "cluster"}, cl)))
	if err != nil {
		return pass{}, err
	}
	defer stop()
	pl := w.Build(seed, tracedSize(w, seconds))
	hc := newHTTPClient(w.Clients)
	defer hc.CloseIdleConnections()
	d := &driver{hc: hc, base: url}
	if err := prime(d, pl.Prime); err != nil {
		return pass{}, err
	}
	if d.refs, err = references(url, backends, hc, pl.Check); err != nil {
		return pass{}, err
	}
	p := alternate(rec, d, pl.Clients)

	sp := p.spans
	calls := sp.named("cluster.")
	backend := sp.named("serve.backend.")
	m["cluster.call_us"] = metric{median(calls.durs(time.Microsecond)), "us"}
	m["cluster.hop_self_us"] = metric{mean(calls.durs(time.Microsecond)) - mean(backend.durs(time.Microsecond)), "us"}
	m["router.backend_share_max"] = metric{maxShare(backend), "ratio"}

	// The proxy's decode of a backend body, timed per reference body.
	var decode []float64
	for range 4 {
		for _, r := range pl.Check {
			var out any
			switch r.Kind {
			case "generate":
				out = new(api.GenerateResult)
			case "analyze":
				out = new(api.AnalyzeResult)
			default:
				out = new(core.Module)
			}
			t0 := time.Now()
			if err := json.Unmarshal(d.refs[r.key()], out); err != nil {
				return pass{}, err
			}
			decode = append(decode, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	m["cluster.decode_us"] = metric{median(decode), "us"}
	return p, nil
}

// tracedCold sends the cold requests to an in-process service whose
// cache is full. Then, one at a time, it sends further cold requests
// traced and replays each right after it is served, stage by stage
// through the entry points api.Service calls, so the miss and its
// stages are timed side by side.
func tracedCold(w workload, seed int64, seconds int, m map[string]metric) (pass, error) {
	rec := newRecorder()
	svc := api.New()
	url, stop, err := listen(rec.handler("serve.direct", serve.NewMux(&tracedCore{Core: svc, rec: rec, layer: "api"})))
	if err != nil {
		return pass{}, err
	}
	defer stop()
	n := tracedSize(w, seconds)
	pl := w.Build(seed, n)
	hc := newHTTPClient(w.Clients)
	defer hc.CloseIdleConnections()
	d := &driver{hc: hc, base: url}
	if err := prime(d, pl.Prime); err != nil {
		return pass{}, err
	}
	c0, a0 := svc.CacheStats(), svc.ArenaStats()
	p := alternate(rec, d, pl.Clients)
	c1, a1 := svc.CacheStats(), svc.ArenaStats()
	m["api.cache_evictions_per_req"] = metric{float64(c1.Evictions-c0.Evictions) / float64(n), "count"}
	gets := (a1.Events.Gets - a0.Events.Gets) + (a1.Entries.Gets - a0.Entries.Gets)
	reused := (a1.Events.Hits - a0.Events.Hits) + (a1.Entries.Hits - a0.Entries.Hits)
	m["api.arena_reuse_ratio"] = metric{float64(reused) / float64(max(gets, 1)), "ratio"}

	arena := netsim.NewArena()
	ctx := context.Background()
	if _, err := replayCold(ctx, rec, arena, pl.Warm[0]); err != nil {
		return pass{}, err
	}
	paired := pl.Warm[1 : 1+max(4, n/4)]
	rec.on.Store(true)
	for i, r := range paired {
		// Alternate which of the pair runs first, so neither side
		// always meets the other's warm CPU caches.
		var got replayed
		var err error
		if i%2 == 1 {
			got, err = replayCold(ctx, rec, arena, r)
		}
		res, body := d.timed(r.Kind, r.Method, r.Path, r.Body)
		p.results = append(p.results, res)
		if i%2 == 0 {
			got, err = replayCold(ctx, rec, arena, r)
		}
		switch {
		case err != nil:
			p.errs = append(p.errs, err)
		case res.OK:
			if err := sameAsServed(got, body); err != nil {
				p.errs = append(p.errs, fmt.Errorf("cold replay %s: %w", r.Body, err))
			}
		}
	}
	rec.on.Store(false)
	sp := spanSet(rec.take())
	p.spans = append(p.spans, sp...)

	misses := sp.named("api.generate").where(func(s span) bool { return !s.Hit })
	m["api.generate_miss_ms"] = metric{mean(misses.durs(time.Millisecond)), "ms"}
	stages := map[string]string{
		"netsim.generate": "netsim.generate_ms", "netsim.windows": "netsim.windows_ms",
		"patterns.window_classify": "patterns.window_classify_ms", "matrix.fold": "matrix.fold_ms",
		"patterns.analyze": "patterns.analyze_ms",
	}
	sum := 0.0
	for name, metricName := range stages {
		v := mean(sp.named(name).durs(time.Millisecond))
		m[metricName] = metric{v, "ms"}
		sum += v
	}
	m["api.miss_self_ms"] = metric{m["api.generate_miss_ms"].Value - sum, "ms"}
	m["netsim.events_per_req"] = metric{mean(sp.named("netsim.generate").counts()), "count"}
	m["matrix.nnz_per_req"] = metric{mean(sp.named("matrix.fold").counts()), "count"}
	return p, nil
}

// replayed is what a cold replay computed, for the check against the
// served body.
type replayed struct {
	events, packets, nnz int
}

// replayCold runs one cold request's stages in the order
// api.Service.generate does, each in its own span under one root.
func replayCold(ctx context.Context, rec *recorder, arena *netsim.Arena, r req) (replayed, error) {
	var gr api.GenerateRequest
	if err := json.Unmarshal(r.Body, &gr); err != nil {
		return replayed{}, err
	}
	scn, err := netsim.ParseSpec(gr.Spec)
	if err != nil {
		return replayed{}, err
	}
	net := netsim.ScaledNetwork(gr.Hosts)
	zones, err := net.Zones()
	if err != nil {
		return replayed{}, err
	}
	params := netsim.Params{Duration: gr.Duration, Rate: gr.Rate, Scale: gr.Scale}.Normalized()
	root := rec.begin(ctx)
	ctx = root.ctx(ctx)

	o := rec.begin(ctx)
	trace, err := netsim.GenerateTraceArena(ctx, arena, scn, net, gr.Seed, runtime.NumCPU(), params)
	o.end("netsim.generate", err != nil, false, len(trace))
	if err != nil {
		root.end("replay", true, false, 0)
		return replayed{}, err
	}
	out := replayed{events: len(trace), packets: trace.TotalPackets()}

	o = rec.begin(ctx)
	windows, err := trace.WindowsCSRArena(ctx, arena, net, gr.Window, params.Duration)
	o.end("netsim.windows", err != nil, false, len(windows))
	if err != nil {
		arena.ReleaseTrace(trace)
		root.end("replay", true, false, 0)
		return replayed{}, err
	}

	o = rec.begin(ctx)
	roles, rolesErr := patterns.AssignDDoSRoles(zones)
	for _, w := range windows {
		if w.Matrix.NNZ() == 0 {
			continue
		}
		patterns.ClassifyAttackStageOf(w.Matrix, zones)
		if rolesErr == nil {
			patterns.ClassifyDDoSOf(w.Matrix, roles)
		}
		matrix.SupernodesOf(w.Matrix, patterns.SupernodeFanThreshold)
	}
	o.end("patterns.window_classify", false, false, len(windows))

	o = rec.begin(ctx)
	csr, _ := trace.SparseMatrixArena(arena, net)
	arena.ReleaseTrace(trace)
	o.end("matrix.fold", false, false, csr.NNZ())
	out.nnz = csr.NNZ()

	o = rec.begin(ctx)
	matrix.ProfileOf(csr)
	patterns.ClassifyBehaviorOf(csr, zones)
	patterns.ClassifyTopologyOf(csr, zones)
	patterns.ClassifyAttackStageOf(csr, zones)
	patterns.ClassifyMixtureOf(csr, zones)
	o.end("patterns.analyze", false, false, 0)
	root.end("replay", false, false, 0)
	return out, nil
}

// sameAsServed checks a replay against the served result's counts.
func sameAsServed(got replayed, body []byte) error {
	var res struct {
		Events    int `json:"events"`
		Packets   int `json:"packets"`
		Aggregate struct {
			Profile struct {
				NNZ int `json:"nnz"`
			} `json:"profile"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	want := replayed{events: res.Events, packets: res.Packets, nnz: res.Aggregate.Profile.NNZ}
	if got != want {
		return fmt.Errorf("replay computed %+v, server %+v", got, want)
	}
	return nil
}

// tracedPlayers serves the players workload from one in-process
// service and checks the mastery totals afterwards.
func tracedPlayers(w workload, seed int64, seconds int, m map[string]metric) (pass, error) {
	rec := newRecorder()
	url, stop, err := listen(rec.handler("serve.direct", serve.NewMux(&tracedCore{Core: api.New(), rec: rec, layer: "api"})))
	if err != nil {
		return pass{}, err
	}
	defer stop()
	pl := w.Build(seed, tracedSize(w, seconds))
	hc := newHTTPClient(w.Clients)
	defer hc.CloseIdleConnections()
	d := &driver{hc: hc, base: url}
	if err := prime(d, pl.Prime); err != nil {
		return pass{}, err
	}
	p := alternate(rec, d, pl.Clients)
	if err := checkMastery(d, d.submits.Load()); err != nil {
		p.errs = append(p.errs, err)
	}
	sp := p.spans
	m["player.start_us"] = metric{median(sp.named("player.start").durs(time.Microsecond)), "us"}
	m["player.submit_us"] = metric{median(sp.named("player.submit").durs(time.Microsecond)), "us"}
	m["player.progress_us"] = metric{median(sp.named("player.progress").durs(time.Microsecond)), "us"}
	m["player.mastery_ms"] = metric{median(sp.named("player.mastery").durs(time.Millisecond)), "ms"}
	m["player.history_len_mean"] = metric{mean(sp.named("player.submit").counts()), "count"}
	return p, nil
}
