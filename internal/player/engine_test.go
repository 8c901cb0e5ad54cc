package player

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// testEngine builds an engine over a fresh store with a tiny module
// workload (the fig9c pattern needs no generation run).
func testEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	return NewEngine(NewMemStore(), opts...)
}

// patternRef is the cheapest deterministic module with a question.
var patternRef = ModuleRef{Pattern: "fig9c-ddos-attack"}

func TestEngineCreateAndGet(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()

	v, err := e.Create(ctx, Record{ID: "alice", Name: "Alice"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Course.Spec != "ddos" || v.Course.Window != DefaultCourseWindow {
		t.Fatalf("default enrollment = %+v", v.Course)
	}
	if v.Progress.Done || len(v.Progress.Available) == 0 {
		t.Fatalf("fresh progress = %+v", v.Progress)
	}
	if v.Progress.Available[0] != "overview" {
		t.Fatalf("first available unit = %q, want overview", v.Progress.Available[0])
	}

	got, err := e.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("Get = %+v, want the Create view %+v", got, v)
	}

	if _, err := e.Create(ctx, Record{ID: "alice"}); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := e.Get(ctx, "nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown get: %v", err)
	}
	if _, err := e.Create(ctx, Record{ID: "Bad ID"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad id: %v", err)
	}
	if _, err := e.Create(ctx, Record{ID: "x", Course: CourseRef{Spec: "no-such-scenario"}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad spec: %v", err)
	}
}

func TestEngineAttemptLifecycle(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}

	a, err := e.StartAttempt(ctx, "alice", patternRef)
	if err != nil {
		t.Fatal(err)
	}
	if a.Attempt != 1 || a.Prompt == "" || len(a.Options) < 2 {
		t.Fatalf("attempt = %+v", a)
	}

	// Find the correct option via the deterministic shuffle, then
	// submit it.
	correct := -1
	sub, err := e.Submit(ctx, "alice", a.Attempt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Answered != 1 {
		t.Fatalf("answered = %d", sub.Answered)
	}
	if sub.Correct {
		correct = 0
	}
	_ = correct

	// Replaying the same attempt is a conflict (it was consumed).
	if _, err := e.Submit(ctx, "alice", a.Attempt, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("replayed submit: %v", err)
	}
	// A made-up attempt ID is a conflict too.
	if _, err := e.Submit(ctx, "alice", 999, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("unknown attempt: %v", err)
	}

	// The history shows up in the account view.
	v, err := e.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answered != 1 {
		t.Fatalf("view answered = %d", v.Answered)
	}

	// Out-of-range answers are invalid, not conflicts.
	b, err := e.StartAttempt(ctx, "alice", patternRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, "alice", b.Attempt, 99); !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range answer: %v", err)
	}
}

// TestEngineAttemptShuffleDeterministic pins that the same attempt
// identity presents the same option order — the property that makes
// player responses bit-identical on any worker.
func TestEngineAttemptShuffleDeterministic(t *testing.T) {
	ctx := context.Background()
	var first []string
	for trial := 0; trial < 2; trial++ {
		e := testEngine(t)
		if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
			t.Fatal(err)
		}
		a, err := e.StartAttempt(ctx, "alice", patternRef)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = a.Options
			continue
		}
		if !reflect.DeepEqual(a.Options, first) {
			t.Fatalf("attempt 1 shuffled differently across engines: %v vs %v", a.Options, first)
		}
	}
}

// TestEngineConcurrentSubmits hammers one player with racing
// start+submit pairs under -race: every successful submit must land in
// the history (the striped lock serializes the read-modify-write), so
// the final count equals the success count exactly.
func TestEngineConcurrentSubmits(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a, err := e.StartAttempt(ctx, "alice", patternRef)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Submit(ctx, "alice", a.Attempt, 0); err != nil {
					// A racing worker may evict our pending attempt past
					// the cap; that surfaces as ErrConflict and is the
					// documented contract — anything else is a bug.
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
					}
					continue
				}
				mu.Lock()
				succeeded++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	v, err := e.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answered != succeeded {
		t.Fatalf("history holds %d answers, %d submits succeeded — a write was lost", v.Answered, succeeded)
	}
	if succeeded == 0 {
		t.Fatal("no submit succeeded; the test exercised nothing")
	}
}

func TestEngineProgressGating(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}

	// The default ddos campaign gates "timeline" behind "overview".
	if _, err := e.Advance(ctx, "alice", "timeline"); !errors.Is(err, ErrConflict) {
		t.Fatalf("locked unit: %v", err)
	}
	if _, err := e.Advance(ctx, "alice", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown unit: %v", err)
	}
	p, err := e.Advance(ctx, "alice", "overview")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Completed, []string{"overview"}) {
		t.Fatalf("completed = %v", p.Completed)
	}
	// Idempotent re-complete.
	again, err := e.Advance(ctx, "alice", "overview")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Fatalf("re-advance changed the view: %+v vs %+v", again, p)
	}
	p2, err := e.Advance(ctx, "alice", "timeline")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Done {
		t.Fatalf("course not done after all units: %+v", p2)
	}
	got, err := e.Progress(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p2) {
		t.Fatalf("Progress = %+v, want %+v", got, p2)
	}
}

// TestEngineRestartKeepsState pins the dir-store restart story: a new
// engine over the same directory serves the same views and continues
// the attempt numbering past the persisted history.
func TestEngineRestartKeepsState(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store)
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	a, err := e.StartAttempt(ctx, "alice", patternRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, "alice", a.Attempt, 0); err != nil {
		t.Fatal(err)
	}
	before, err := e.Advance(ctx, "alice", "overview")
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store and engine over the same root.
	store2, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(store2)
	after, err := e2.Progress(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("progress across restart: %+v vs %+v", after, before)
	}
	v, err := e2.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answered != 1 {
		t.Fatalf("restarted view answered = %d", v.Answered)
	}
	// Attempt IDs continue past the persisted history.
	b, err := e2.StartAttempt(ctx, "alice", patternRef)
	if err != nil {
		t.Fatal(err)
	}
	if b.Attempt != 2 {
		t.Fatalf("post-restart attempt = %d, want 2", b.Attempt)
	}
}

func TestEngineRateLimiting(t *testing.T) {
	clock := newFakeClock()
	lim := withClock(NewLimiter(1, 2, 0), clock)
	e := testEngine(t, WithLimiter(lim))
	ctx := context.Background()
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	// Burst exhausted: the next call is a RateLimitError with a hint.
	_, err := e.Get(ctx, "alice")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("got %v, want ErrRateLimited", err)
	}
	var rle *RateLimitError
	if !errors.As(err, &rle) || rle.RetryAfter <= 0 {
		t.Fatalf("429 without a retry hint: %v", err)
	}
	// Another player is unaffected.
	if _, err := e.Create(ctx, Record{ID: "bob"}); err != nil {
		t.Fatal(err)
	}
	// Mastery is an operator call and is never limited.
	for i := 0; i < 5; i++ {
		if _, err := e.Mastery(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Time heals the limited player.
	clock.advance(2 * time.Second)
	if _, err := e.Get(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMastery(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	for _, id := range []string{"alice", "bob"} {
		if _, err := e.Create(ctx, Record{ID: id}); err != nil {
			t.Fatal(err)
		}
		a, err := e.StartAttempt(ctx, id, patternRef)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(ctx, id, a.Attempt, 0); err != nil {
			t.Fatal(err)
		}
	}
	items, err := e.Mastery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("mastery items = %+v", items)
	}
	if items[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", items[0].Attempts)
	}
	if items[0].Correct+len(items[0].Distractor) == 0 && items[0].Attempts > 0 &&
		items[0].Correct != items[0].Attempts {
		t.Fatalf("stats inconsistent: %+v", items[0])
	}
}

func TestEngineStartAttemptValidation(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	if _, err := e.Create(ctx, Record{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	cases := map[string]ModuleRef{
		"both set":        {Spec: "ddos", Pattern: "fig9c-ddos-attack"},
		"neither set":     {},
		"unknown pattern": {Pattern: "fig0-nope"},
		"unknown spec":    {Spec: "no-such-scenario"},
		"hosts too big":   {Spec: "ddos", Hosts: maxHosts + 1},
	}
	for name, ref := range cases {
		if _, err := e.StartAttempt(ctx, "alice", ref); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
	if _, err := e.StartAttempt(ctx, "nobody", patternRef); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown player: %v", err)
	}
}
