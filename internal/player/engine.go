package player

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/modules"
	"repro/internal/netsim"
	"repro/internal/quiz"
)

// Engine defaults.
const (
	// DefaultCourseSpec enrolls new players without an explicit
	// course in the paper's flagship scenario.
	DefaultCourseSpec = "ddos"
	// DefaultCourseWindow is the campaign aggregation window for
	// default enrollments (seconds).
	DefaultCourseWindow = 15
	// maxHosts bounds the scenario network a player request may ask
	// for — far below the api layer's general limit, because player
	// renders are interactive teaching content, not bulk generation.
	maxHosts = 512
	// maxPendingAttempts bounds the in-flight (started, unsubmitted)
	// attempts kept per player; the oldest is dropped beyond it.
	maxPendingAttempts = 16
	// engineStripes is the per-player lock stripe count.
	engineStripes = 64
	// courseMemoCap bounds the rendered-course memo; the memo is
	// flushed wholesale when full (refs are few in practice — the
	// cap is a safety valve, not a working set).
	courseMemoCap = 32
)

// ModuleRef names the deterministic learning module a quiz attempt is
// rendered from: exactly one of Spec (scenario aggregate via the
// bridge) or Pattern (paper-figure panel) must be set.
type ModuleRef struct {
	// Spec is a netsim scenario name or composition expression.
	Spec string `json:"spec,omitempty"`
	// Pattern is a paper-figure pattern ID.
	Pattern string `json:"pattern,omitempty"`
	// Hosts sizes the scenario network for the Spec path.
	Hosts int `json:"hosts,omitempty"`
	// Seed drives the deterministic generation for the Spec path.
	Seed int64 `json:"seed,omitempty"`
}

// ProgressView is the course-progress summary: unit names in authored
// course order, so the same store state always renders the same view.
type ProgressView struct {
	Player    string   `json:"player"`
	Course    string   `json:"course"`
	Completed []string `json:"completed"`
	Available []string `json:"available"`
	Locked    []string `json:"locked"`
	Done      bool     `json:"done"`
}

// View is the account summary returned by Create and Get.
type View struct {
	ID       string       `json:"id"`
	Name     string       `json:"name"`
	Course   CourseRef    `json:"course"`
	Answered int          `json:"answered"`
	Correct  int          `json:"correct"`
	Score    float64      `json:"score"`
	Progress ProgressView `json:"progress"`
}

// Attempt is a started quiz attempt: the presented question with its
// options in display order.
type Attempt struct {
	Player  string   `json:"player"`
	Attempt int64    `json:"attempt"`
	Module  string   `json:"module"`
	Prompt  string   `json:"prompt"`
	Options []string `json:"options"`
}

// Submission is the graded outcome of an attempt.
type Submission struct {
	Player      string  `json:"player"`
	Attempt     int64   `json:"attempt"`
	Correct     bool    `json:"correct"`
	CorrectText string  `json:"correct_text"`
	Answered    int     `json:"answered"`
	CorrectN    int     `json:"correct_n"`
	Score       float64 `json:"score"`
}

// MasteryItem is one question's cohort statistics across every
// player's history, hardest first.
type MasteryItem struct {
	Prompt     string         `json:"prompt"`
	Attempts   int            `json:"attempts"`
	Correct    int            `json:"correct"`
	Difficulty float64        `json:"difficulty"`
	Distractor map[string]int `json:"distractors,omitempty"`
}

// pendingAttempt is a started, unsubmitted quiz attempt.
type pendingAttempt struct {
	presented quiz.Presented
	module    string
}

// playerAttempts tracks one player's attempt counter and in-flight
// attempts. nextID is monotonically increasing within a process and
// re-seeded from the persisted history length after a restart, so IDs
// never collide with already-recorded attempts.
type playerAttempts struct {
	nextID  int64
	pending map[int64]pendingAttempt
}

// Engine implements the player layer's behaviour on a Store. All
// methods are safe for concurrent use; operations touching one
// player serialize on a striped lock, so two racing submits for the
// same player can never lose a history update.
type Engine struct {
	store   Store
	limiter *Limiter

	locks [engineStripes]sync.Mutex

	attemptMu sync.Mutex
	attempts  map[string]*playerAttempts

	// memo caches rendered courses by canonical CourseRef: rendering
	// replays the whole generation pipeline, and the result is a pure
	// function of the ref. This is the player layer's only cache — it
	// deliberately bypasses the api result cache, because everything
	// else the engine serves is mutable per-player state.
	memoMu sync.Mutex
	memo   map[CourseRef]*course.Course
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithLimiter installs a per-player rate limiter (nil admits all).
func WithLimiter(l *Limiter) EngineOption { return func(e *Engine) { e.limiter = l } }

// NewEngine builds an engine over a store.
func NewEngine(store Store, opts ...EngineOption) *Engine {
	e := &Engine{
		store:    store,
		attempts: make(map[string]*playerAttempts),
		memo:     make(map[CourseRef]*course.Course),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// lock returns the player's stripe lock.
func (e *Engine) lock(id string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &e.locks[h.Sum32()%engineStripes]
}

// admit applies the per-player rate limit.
func (e *Engine) admit(id string) error {
	ok, retry := e.limiter.Allow(id)
	if !ok {
		return &RateLimitError{RetryAfter: retry}
	}
	return nil
}

// resolveSpec resolves a scenario name or composition expression.
func resolveSpec(spec string) (netsim.Scenario, error) {
	s, err := netsim.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return s, nil
}

// normalizeCourse validates and canonicalizes a course ref, applying
// engine defaults for zero fields.
func normalizeCourse(ref CourseRef) (CourseRef, error) {
	if strings.TrimSpace(ref.Spec) == "" {
		ref.Spec = DefaultCourseSpec
	}
	scn, err := resolveSpec(ref.Spec)
	if err != nil {
		return CourseRef{}, err
	}
	ref.Spec = netsim.SpecString(scn)
	if ref.Window == 0 {
		ref.Window = DefaultCourseWindow
	}
	if ref.Window < 0 {
		return CourseRef{}, fmt.Errorf("%w: course window must be positive, got %g", ErrInvalid, ref.Window)
	}
	if ref.Hosts < 0 || ref.Hosts > maxHosts {
		return CourseRef{}, fmt.Errorf("%w: hosts %d out of range [0,%d]", ErrInvalid, ref.Hosts, maxHosts)
	}
	return ref, nil
}

// renderCourse renders (or recalls) the deterministic course for a
// canonical ref.
func (e *Engine) renderCourse(ctx context.Context, ref CourseRef) (*course.Course, error) {
	e.memoMu.Lock()
	if c, ok := e.memo[ref]; ok {
		e.memoMu.Unlock()
		return c, nil
	}
	e.memoMu.Unlock()
	scn, err := resolveSpec(ref.Spec)
	if err != nil {
		return nil, err
	}
	// Workers 0 generates on all CPUs; the course is the same for any
	// worker count.
	camp, err := bridge.CampaignFromScenario(ctx, scn, netsim.ScaledNetwork(ref.Hosts),
		ref.Seed, 0, netsim.Params{}, ref.Window)
	if err != nil {
		return nil, err
	}
	e.memoMu.Lock()
	if len(e.memo) >= courseMemoCap {
		e.memo = make(map[CourseRef]*course.Course)
	}
	e.memo[ref] = camp.Course
	e.memoMu.Unlock()
	return camp.Course, nil
}

// renderModule renders the module a quiz attempt draws from.
func (e *Engine) renderModule(ctx context.Context, ref ModuleRef) (*core.Module, error) {
	hasSpec := strings.TrimSpace(ref.Spec) != ""
	hasPattern := strings.TrimSpace(ref.Pattern) != ""
	if hasSpec == hasPattern {
		return nil, fmt.Errorf("%w: exactly one of spec or pattern must be set", ErrInvalid)
	}
	if hasPattern {
		m, err := modules.Pattern(ref.Pattern)
		if errors.Is(err, modules.ErrUnknownPattern) {
			return nil, fmt.Errorf("%w: unknown pattern %q", ErrInvalid, ref.Pattern)
		}
		return m, err
	}
	if ref.Hosts < 0 || ref.Hosts > maxHosts {
		return nil, fmt.Errorf("%w: hosts %d out of range [0,%d]", ErrInvalid, ref.Hosts, maxHosts)
	}
	scn, err := resolveSpec(ref.Spec)
	if err != nil {
		return nil, err
	}
	// Workers 0 generates on all CPUs, as renderCourse does.
	return bridge.AggregateModule(ctx, scn, netsim.ScaledNetwork(ref.Hosts),
		ref.Seed, 0, netsim.Params{})
}

// replayProgress rebuilds a live Progress from the persisted
// completed-unit snapshot.
func replayProgress(c *course.Course, completed []string) (*course.Progress, error) {
	p := course.NewProgress(c)
	for _, unit := range completed {
		if err := p.Complete(unit); err != nil {
			return nil, fmt.Errorf("player: corrupt progress snapshot: %w", err)
		}
	}
	return p, nil
}

// loadProgress reads the player's snapshot (empty when none yet) and
// replays it over the rendered course.
func (e *Engine) loadProgress(ctx context.Context, rec Record) (*course.Course, *course.Progress, []string, error) {
	c, err := e.renderCourse(ctx, rec.Course)
	if err != nil {
		return nil, nil, nil, err
	}
	completed, err := e.store.Progress(rec.ID)
	if err != nil && err != errNoProgress {
		return nil, nil, nil, err
	}
	p, err := replayProgress(c, completed)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, p, completed, nil
}

// progressView renders the canonical summary: unit names bucketed by
// state in authored course order.
func progressView(id string, c *course.Course, p *course.Progress) ProgressView {
	v := ProgressView{Player: id, Course: c.Name, Completed: []string{}, Available: []string{}, Locked: []string{}}
	for _, u := range c.Units {
		switch {
		case p.Completed(u.Name):
			v.Completed = append(v.Completed, u.Name)
		case p.Unlocked(u.Name):
			v.Available = append(v.Available, u.Name)
		default:
			v.Locked = append(v.Locked, u.Name)
		}
	}
	v.Done = p.Done()
	return v
}

// view assembles the account summary from store state.
func (e *Engine) view(ctx context.Context, rec Record) (View, error) {
	c, p, _, err := e.loadProgress(ctx, rec)
	if err != nil {
		return View{}, err
	}
	history, err := e.store.History(rec.ID)
	if err != nil {
		return View{}, err
	}
	sess := quiz.RestoreSession(rec.ID, history)
	return View{
		ID: rec.ID, Name: rec.Name, Course: rec.Course,
		Answered: sess.Answered(), Correct: sess.CorrectCount(), Score: sess.Score(),
		Progress: progressView(rec.ID, c, p),
	}, nil
}

// Create registers a new player and returns its initial view. A
// zero-valued Course enrolls the default campaign; the spec is
// validated and rendered before anything is stored, so a stored
// player always has a renderable course.
func (e *Engine) Create(ctx context.Context, rec Record) (View, error) {
	if !ValidID(rec.ID) {
		return View{}, fmt.Errorf("%w: bad player id %q (want [a-z0-9][a-z0-9_-]*, ≤%d bytes)", ErrInvalid, rec.ID, MaxIDLength)
	}
	if err := e.admit(rec.ID); err != nil {
		return View{}, err
	}
	ref, err := normalizeCourse(rec.Course)
	if err != nil {
		return View{}, err
	}
	rec.Course = ref
	if strings.TrimSpace(rec.Name) == "" {
		rec.Name = rec.ID
	}
	if _, err := e.renderCourse(ctx, ref); err != nil {
		return View{}, err
	}
	mu := e.lock(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	if err := e.store.Create(rec); err != nil {
		return View{}, err
	}
	return e.view(ctx, rec)
}

// Get returns the player's account summary.
func (e *Engine) Get(ctx context.Context, id string) (View, error) {
	if err := e.admit(id); err != nil {
		return View{}, err
	}
	mu := e.lock(id)
	mu.Lock()
	defer mu.Unlock()
	rec, err := e.store.Get(id)
	if err != nil {
		return View{}, err
	}
	return e.view(ctx, rec)
}

// attemptsFor returns the player's attempt tracker, seeding the
// counter past the persisted history so IDs stay unique across
// restarts.
func (e *Engine) attemptsFor(id string, answered int) *playerAttempts {
	e.attemptMu.Lock()
	defer e.attemptMu.Unlock()
	pa, ok := e.attempts[id]
	if !ok {
		pa = &playerAttempts{nextID: 1, pending: make(map[int64]pendingAttempt)}
		e.attempts[id] = pa
	}
	if next := int64(answered) + 1; pa.nextID < next {
		pa.nextID = next
	}
	return pa
}

// StartAttempt renders the referenced module's question, shuffles its
// answers with a permutation derived deterministically from the
// player, attempt number, and prompt, and returns the presented
// attempt. The attempt stays pending until submitted; at most
// maxPendingAttempts are kept per player (oldest dropped).
func (e *Engine) StartAttempt(ctx context.Context, id string, ref ModuleRef) (Attempt, error) {
	if err := e.admit(id); err != nil {
		return Attempt{}, err
	}
	mu := e.lock(id)
	mu.Lock()
	defer mu.Unlock()
	rec, err := e.store.Get(id)
	if err != nil {
		return Attempt{}, err
	}
	m, err := e.renderModule(ctx, ref)
	if err != nil {
		return Attempt{}, err
	}
	q, ok := m.Quiz()
	if !ok {
		return Attempt{}, fmt.Errorf("%w: module %q has no question", ErrInvalid, m.Name)
	}
	history, err := e.store.History(rec.ID)
	if err != nil {
		return Attempt{}, err
	}
	pa := e.attemptsFor(id, len(history))
	e.attemptMu.Lock()
	attemptID := pa.nextID
	pa.nextID++
	presented := quiz.Shuffle(q, attemptRand(id, attemptID, q.Prompt))
	pa.pending[attemptID] = pendingAttempt{presented: presented, module: m.Name}
	for len(pa.pending) > maxPendingAttempts {
		oldest := int64(-1)
		for k := range pa.pending {
			if oldest < 0 || k < oldest {
				oldest = k
			}
		}
		delete(pa.pending, oldest)
	}
	e.attemptMu.Unlock()
	return Attempt{
		Player: id, Attempt: attemptID, Module: m.Name,
		Prompt: presented.Prompt, Options: append([]string(nil), presented.Options...),
	}, nil
}

// attemptRand seeds the display shuffle from the attempt's identity,
// so the same attempt presents the same option order on any worker.
func attemptRand(id string, attempt int64, prompt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s", id, attempt, prompt)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Submit grades a pending attempt and appends the result to the
// player's persisted history. A submit for an attempt that was never
// started, already submitted, or evicted returns ErrConflict — the
// caller should start a fresh attempt.
func (e *Engine) Submit(ctx context.Context, id string, attemptID int64, answer int) (Submission, error) {
	if err := e.admit(id); err != nil {
		return Submission{}, err
	}
	mu := e.lock(id)
	mu.Lock()
	defer mu.Unlock()
	rec, err := e.store.Get(id)
	if err != nil {
		return Submission{}, err
	}
	e.attemptMu.Lock()
	pa := e.attempts[id]
	var pending pendingAttempt
	ok := false
	if pa != nil {
		pending, ok = pa.pending[attemptID]
	}
	e.attemptMu.Unlock()
	if !ok {
		return Submission{}, fmt.Errorf("%w: attempt %d is not pending for player %q", ErrConflict, attemptID, id)
	}
	if answer < 0 || answer >= len(pending.presented.Options) {
		return Submission{}, fmt.Errorf("%w: answer %d out of range [0,%d)", ErrInvalid, answer, len(pending.presented.Options))
	}
	history, err := e.store.History(rec.ID)
	if err != nil {
		return Submission{}, err
	}
	sess := quiz.RestoreSession(rec.ID, history)
	correct, err := sess.Record(pending.presented, answer)
	if err != nil {
		return Submission{}, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if err := e.store.PutHistory(rec.ID, sess.Results()); err != nil {
		return Submission{}, err
	}
	e.attemptMu.Lock()
	if pa := e.attempts[id]; pa != nil {
		delete(pa.pending, attemptID)
	}
	e.attemptMu.Unlock()
	return Submission{
		Player: id, Attempt: attemptID, Correct: correct,
		CorrectText: pending.presented.Options[pending.presented.CorrectOption],
		Answered:    sess.Answered(), CorrectN: sess.CorrectCount(), Score: sess.Score(),
	}, nil
}

// Advance marks a course unit completed for the player, enforcing the
// prerequisite gate: an unknown unit is ErrNotFound, a locked one
// ErrConflict, and re-completing a done unit is idempotent.
func (e *Engine) Advance(ctx context.Context, id, unit string) (ProgressView, error) {
	if err := e.admit(id); err != nil {
		return ProgressView{}, err
	}
	mu := e.lock(id)
	mu.Lock()
	defer mu.Unlock()
	rec, err := e.store.Get(id)
	if err != nil {
		return ProgressView{}, err
	}
	c, p, completed, err := e.loadProgress(ctx, rec)
	if err != nil {
		return ProgressView{}, err
	}
	if _, ok := c.Unit(unit); !ok {
		return ProgressView{}, fmt.Errorf("%w: unit %q is not in course %q", ErrNotFound, unit, c.Name)
	}
	if !p.Completed(unit) {
		if !p.Unlocked(unit) {
			return ProgressView{}, fmt.Errorf("%w: unit %q is locked (prerequisites incomplete)", ErrConflict, unit)
		}
		if err := p.Complete(unit); err != nil {
			return ProgressView{}, fmt.Errorf("%w: %w", ErrConflict, err)
		}
		completed = append(completed, unit)
		if err := e.store.PutProgress(rec.ID, c, completed); err != nil {
			return ProgressView{}, err
		}
	}
	return progressView(id, c, p), nil
}

// Progress returns the player's course-progress summary.
func (e *Engine) Progress(ctx context.Context, id string) (ProgressView, error) {
	if err := e.admit(id); err != nil {
		return ProgressView{}, err
	}
	mu := e.lock(id)
	mu.Lock()
	defer mu.Unlock()
	rec, err := e.store.Get(id)
	if err != nil {
		return ProgressView{}, err
	}
	c, p, _, err := e.loadProgress(ctx, rec)
	if err != nil {
		return ProgressView{}, err
	}
	return progressView(id, c, p), nil
}

// Mastery aggregates every player's history into cohort item
// statistics, hardest first — the educator dashboard view. It is not
// rate limited (it is an operator call, not a player one).
func (e *Engine) Mastery(ctx context.Context) ([]MasteryItem, error) {
	ids, err := e.store.Players()
	if err != nil {
		return nil, err
	}
	cohort := quiz.NewCohort()
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		history, err := e.store.History(id)
		if err != nil {
			return nil, err
		}
		cohort.AddSession(quiz.RestoreSession(id, history))
	}
	items := cohort.HardestFirst()
	out := make([]MasteryItem, 0, len(items))
	for _, it := range items {
		mi := MasteryItem{
			Prompt: it.Prompt, Attempts: it.Attempts, Correct: it.Correct,
			Difficulty: it.Difficulty(),
		}
		if len(it.Distractors) > 0 {
			mi.Distractor = make(map[string]int, len(it.Distractors))
			for k, v := range it.Distractors {
				mi.Distractor[k] = v
			}
		}
		out = append(out, mi)
	}
	return out, nil
}
