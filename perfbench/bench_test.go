package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 5, 5}, {90, 9, 1}, {99, 10, 0}, {100, 10, 0}, {1, 1, 9}, {10, 1, 9}, {11, 2, 8},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(len(xs), c.p); got != c.beyond {
			t.Errorf("beyond(10, %v) = %d, want %d", c.p, got, c.beyond)
		}
	}
	if percentile(nil, 50) != 0 || beyond(0, 50) != 0 {
		t.Error("empty input should read 0")
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: us(0), End: us(100)},
		// Overlapping children count once: 10–50.
		{ID: 2, Parent: 1, Start: us(10), End: us(30)},
		{ID: 3, Parent: 1, Start: us(20), End: us(50)},
		// A child running past its parent counts only inside it: 90–100.
		{ID: 4, Parent: 1, Start: us(90), End: us(120)},
		// A grandchild is its parent's, not the root's.
		{ID: 5, Parent: 3, Start: us(25), End: us(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: us(50), 2: us(20), 3: us(20), 4: us(30), 5: us(10)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	spans := []span{
		{Start: us(0), End: us(10)}, {Start: us(20), End: us(30)}, {Start: us(22), End: us(25)},
	}
	if got := covered(us(0), us(100), spans); got != us(20) {
		t.Errorf("covered = %v, want 20µs", got)
	}
	if got := covered(us(5), us(21), spans); got != us(6) {
		t.Errorf("covered clipped = %v, want 6µs", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	ctx := t.Context()
	if rec.begin(ctx) != nil {
		t.Fatal("a recorder that is off must not open spans")
	}
	rec.on.Store(true)
	root := rec.begin(ctx)
	child := rec.begin(root.ctx(ctx))
	child.end("api.generate", false, true, 0)
	root.end("serve.direct", false, false, 10)
	spans := rec.take()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != r.ID || c.Req != r.Req || r.Parent != 0 || !c.Hit || r.N != 10 {
		t.Errorf("child %+v does not nest under root %+v", c, r)
	}
	if len(rec.take()) != 0 {
		t.Error("take did not clear the store")
	}
}

func TestFailedByLayerAndShare(t *testing.T) {
	spans := spanSet{
		{Name: "serve.backend.0", Failed: true}, {Name: "serve.backend.1"}, {Name: "serve.backend.0"},
		{Name: "api.generate", Failed: true}, {Name: "player.submit"},
	}
	got := failedByLayer(spans)
	if got["serve"] != 1 || got["api"] != 1 || got["player"] != 0 {
		t.Errorf("failedByLayer = %v", got)
	}
	if share := maxShare(spans.named("serve.backend.")); share != 2.0/3 {
		t.Errorf("maxShare = %v, want 2/3", share)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := w.Build(7, 500), w.Build(7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed built different plans", w.Name)
		}
		if c := w.Build(8, 500); reflect.DeepEqual(a.Clients, c.Clients) {
			t.Errorf("%s: seeds 7 and 8 built the same timed sequence", w.Name)
		}
		if len(a.Clients) != w.Clients {
			t.Errorf("%s: %d client lists, want %d", w.Name, len(a.Clients), w.Clients)
		}
	}
}

func TestLessonSharesKeepPercentilesInsideOneKind(t *testing.T) {
	p := lessonPlan(3, 2400)
	counts := map[string]int{}
	total := 0
	for _, c := range p.Clients {
		for _, r := range c {
			counts[r.Kind]++
			total++
		}
	}
	if total < 2400 || total%120 != 0 {
		t.Fatalf("lesson sends %d requests, want whole 120-request cycles covering 2400", total)
	}
	for kind, want := range map[string]float64{"generate": 0.6, "analyze": 0.2, "module": 0.2} {
		if got := float64(counts[kind]) / float64(total); got != want {
			t.Errorf("%s share = %v, want %v", kind, got, want)
		}
	}
	for _, r := range p.Prime {
		if r.Kind != "generate" && r.Kind != "analyze" {
			t.Errorf("lesson primes a %s request", r.Kind)
		}
	}
}

func TestColdRequestsAreUnique(t *testing.T) {
	p := coldPlan(5, 100)
	seen := map[string]bool{}
	for _, list := range [][]req{p.Prime, p.Warm, p.Clients[0]} {
		for _, r := range list {
			if seen[string(r.Body)] {
				t.Fatalf("cold plan repeats %s", r.Body)
			}
			seen[string(r.Body)] = true
		}
	}
	if len(p.Clients[0]) != 100 {
		t.Errorf("timed cold requests = %d, want 100", len(p.Clients[0]))
	}
}

func TestPlayersOwnDisjointPlayersAndReadMastery(t *testing.T) {
	p := playersPlan(11, 240)
	owner := map[string]int{}
	turns, mastery := 0, 0
	for c, list := range p.Clients {
		for _, r := range list {
			switch r.Kind {
			case "turn":
				turns++
				if o, ok := owner[r.Player]; ok && o != c {
					t.Fatalf("player %s is driven by clients %d and %d", r.Player, o, c)
				}
				owner[r.Player] = c
			case "mastery":
				mastery++
			}
		}
	}
	if turns != 240 || mastery != 240/masteryEvery {
		t.Errorf("turns %d, mastery reads %d; want 240 and %d", turns, mastery, 240/masteryEvery)
	}
	if len(owner) != playerCount {
		t.Errorf("%d players driven, want %d", len(owner), playerCount)
	}
	if got := p.timedCount(); got != 3*turns+mastery {
		t.Errorf("timedCount = %d, want %d", got, 3*turns+mastery)
	}
	for _, r := range p.Warm {
		if r.Kind != "progress" && r.Kind != "module" {
			t.Errorf("players warm-up sends a %s request, which changes player state", r.Kind)
		}
	}
}

func TestPlateaued(t *testing.T) {
	if plateaued([]float64{100, 100, 100}) {
		t.Error("three slices cannot show a plateau")
	}
	if !plateaued([]float64{50, 100, 102, 99, 101}) {
		t.Error("four slices within 3% are a plateau")
	}
	if plateaued([]float64{100, 90, 80, 70}) {
		t.Error("a falling rate is not a plateau")
	}
}

func TestAlternationIsBalanced(t *testing.T) {
	on := 0
	for q := range overheadSegments {
		if tracedSegment(q) {
			on++
		}
	}
	if 2*on != overheadSegments {
		t.Errorf("%d of %d segments traced, want half", on, overheadSegments)
	}
	lists := [][]req{make([]req, 10), make([]req, 7)}
	n := 0
	for _, seg := range segments(lists, overheadSegments) {
		for _, l := range seg {
			n += len(l)
		}
	}
	if n != 17 {
		t.Errorf("segments cover %d requests, want 17", n)
	}
}

func TestSameJSONWithoutTimings(t *testing.T) {
	served := []byte(`{"events": 3, "timings": {"generate_ns": 12}, "cache_hit": false}`)
	want := []byte(`{"events":3,"timings":{"generate_ns":0},"cache_hit":false}`)
	if err := sameJSONWithoutTimings(served, want); err != nil {
		t.Errorf("equal bodies apart from timings: %v", err)
	}
	other := []byte(`{"events":4,"timings":{"generate_ns":0},"cache_hit":false}`)
	if err := sameJSONWithoutTimings(served, other); err == nil {
		t.Error("different event counts compared equal")
	}
}

func TestProcReaders(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this system")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU: %v", err)
	}
	hwm, err := procHWM(os.Getpid())
	if err != nil || hwm <= 0 {
		t.Errorf("procHWM = %d, %v", hwm, err)
	}
}

func TestLookupWorkload(t *testing.T) {
	var names []string
	for _, w := range workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %s not found", w.Name)
		}
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "lesson,lesson-proxy,cold,players" {
		t.Errorf("workloads = %s", got)
	}
	if _, ok := lookupWorkload("nope"); ok {
		t.Error("unknown workload found")
	}
}
