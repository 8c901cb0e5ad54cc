package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// normalizeResult strips the per-call fields (timings are wall-clock,
// the hit marker depends on interleaving) and returns the wire JSON —
// the canonical identity two services' answers are compared by.
func normalizeResult(t *testing.T, r *GenerateResult) string {
	t.Helper()
	cp := *r
	cp.Timings = Timings{}
	cp.CacheHit = false
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeFrames does the same for a collected stream.
func normalizeFrames(t *testing.T, frames []StreamFrame) string {
	t.Helper()
	cp := make([]StreamFrame, len(frames))
	copy(cp, frames)
	for i := range cp {
		if cp[i].Summary != nil {
			s := *cp[i].Summary
			s.Timings = Timings{}
			cp[i].Summary = &s
		}
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheHitDefensiveCopies pins the warm-path aliasing fix: a
// caller mutating the result it was handed must not be able to
// corrupt the cached value other callers are served from.
func TestCacheHitDefensiveCopies(t *testing.T) {
	svc := New()
	req := NewGenerateRequest("attack", WithSeed(3), WithWorkers(2), WithParams(8, 4, 1), WithWindow(2))
	if _, err := svc.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if len(warm.Windows) == 0 || len(warm.Labels) == 0 {
		t.Fatalf("test needs windows and labels to mutate: %+v", warm)
	}
	pristine := normalizeResult(t, warm)

	// Vandalize every mutable header the caller can reach.
	warm.Labels[0] = "corrupted"
	for i := range warm.Schedule {
		warm.Schedule[i].Label = "corrupted"
	}
	for i := range warm.ComposedOf {
		warm.ComposedOf[i] = "corrupted"
	}
	for i := range warm.Aggregate.Mixture {
		warm.Aggregate.Mixture[i].Label = "corrupted"
	}
	for i := range warm.Windows {
		warm.Windows[i].Events = -1
		if r := warm.Windows[i].AttackStage; r != nil {
			r.Label = "corrupted"
		}
		if r := warm.Windows[i].DDoS; r != nil {
			r.Label = "corrupted"
		}
		if h := warm.Windows[i].Hub; h != nil {
			h.Host = "corrupted"
		}
	}

	again, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizeResult(t, again); got != pristine {
		t.Fatal("mutating a warm result leaked into the cache")
	}
}

// TestStreamEmitFailurePostFirstFrame pins the mid-stream error path:
// a consumer failing after frames have been delivered must get its
// own error back (not a bare context.Canceled), must see no further
// frames, and must leave no session behind.
func TestStreamEmitFailurePostFirstFrame(t *testing.T) {
	svc := New()
	boom := errors.New("consumer hung up")
	var frames []string
	windowsSeen := 0
	req := NewGenerateRequest("background", WithSeed(5), WithParams(120, 40, 1), WithWindow(2), WithWorkers(4))
	err := svc.GenerateStream(context.Background(), req, func(f StreamFrame) error {
		frames = append(frames, f.Type)
		if f.Type == FrameWindow {
			windowsSeen++
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's own error", err)
	}
	if windowsSeen != 1 {
		t.Fatalf("saw %d window frames, want exactly the failing one", windowsSeen)
	}
	if frames[len(frames)-1] != FrameWindow {
		t.Fatalf("frames after the failure: %v", frames)
	}
	if n := len(svc.Sessions()); n != 0 {
		t.Fatalf("%d sessions left behind", n)
	}
}

// TestPooledMatchesReference is the pooling property test: a pooled
// service hammered with concurrent mixed cold/warm/stream requests
// answers bit-identically (modulo timings and hit markers) to a
// pool-free reference service asked the same questions. Run under
// -race in CI, this is the aliasing detector for the whole arena
// design: any slab recycled while a response still referenced it
// shows up as a data race or a JSON mismatch.
func TestPooledMatchesReference(t *testing.T) {
	pooled := New()
	ref := New(WithoutPooling())

	reqs := []GenerateRequest{
		NewGenerateRequest("scan", WithSeed(1), WithHosts(40), WithParams(8, 20, 1), WithWindow(2), WithWorkers(4)),
		NewGenerateRequest("background", WithSeed(2), WithHosts(60), WithParams(10, 30, 1), WithWindow(5), WithWorkers(4)),
		NewGenerateRequest("attack", WithSeed(3), WithHosts(20), WithParams(12, 4, 1), WithWindow(3), WithWorkers(4)),
		NewGenerateRequest("overlay(background,scan)", WithSeed(4), WithHosts(40), WithParams(9, 15, 1), WithWindow(3), WithMatrices(), WithWorkers(4)),
	}

	const goroutines = 8
	const opsEach = 18
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				req := reqs[(g*7+i)%len(reqs)]
				if (g+i)%3 == 2 {
					// Stream op: collect both services' frames.
					var pf, rf []StreamFrame
					if err := pooled.GenerateStream(context.Background(), req, func(f StreamFrame) error {
						pf = append(pf, f)
						return nil
					}); err != nil {
						errc <- err
						return
					}
					if err := ref.GenerateStream(context.Background(), req, func(f StreamFrame) error {
						rf = append(rf, f)
						return nil
					}); err != nil {
						errc <- err
						return
					}
					if normalizeFrames(t, pf) != normalizeFrames(t, rf) {
						errc <- fmt.Errorf("goroutine %d op %d: pooled stream differs from reference", g, i)
						return
					}
					continue
				}
				// Batch op (cold or warm depending on interleaving).
				pr, err := pooled.Generate(context.Background(), req)
				if err != nil {
					errc <- err
					return
				}
				rr, err := ref.Generate(context.Background(), req)
				if err != nil {
					errc <- err
					return
				}
				if normalizeResult(t, pr) != normalizeResult(t, rr) {
					errc <- fmt.Errorf("goroutine %d op %d: pooled result differs from reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := pooled.ArenaStats(); st.Entries.Hits == 0 && st.Events.Hits == 0 {
		t.Fatalf("pooled service never reused a slab: %+v", st)
	}
	if st := ref.ArenaStats(); st.Entries.Gets != 0 || st.Events.Gets != 0 {
		t.Fatalf("reference service touched an arena: %+v", st)
	}
}
