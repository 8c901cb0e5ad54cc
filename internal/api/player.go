package api

import (
	"context"
	"sort"
	"strings"

	"repro/internal/player"
)

// Player-layer wire surface. The façade exposes internal/player's
// engine behind the same Core discipline as everything else: requests
// are plain JSON structs, results carry the api version, and errors
// wrap the player package's sentinels (which serve maps to 400, 404,
// 409, and 429). Every result is a pure function of store state and
// the request sequence — no timestamps — so a cluster proxy serves
// player traffic bit-identically to a single process.

// PlayerCreateRequest registers a new player. A zero Course enrolls
// the default campaign.
type PlayerCreateRequest struct {
	ID     string           `json:"id"`
	Name   string           `json:"name,omitempty"`
	Course player.CourseRef `json:"course,omitzero"`
}

// PlayerGetRequest names a player.
type PlayerGetRequest struct {
	ID string `json:"id"`
}

// AttemptStartRequest starts a quiz attempt for a player on the
// module the embedded ref renders (spec or pattern).
type AttemptStartRequest struct {
	Player string `json:"player"`
	player.ModuleRef
}

// AttemptSubmitRequest answers a pending attempt.
type AttemptSubmitRequest struct {
	Player  string `json:"player"`
	Attempt int64  `json:"attempt"`
	Answer  int    `json:"answer"`
}

// ProgressRequest reads (Unit empty) or advances (Unit set) a
// player's course progress.
type ProgressRequest struct {
	Player string `json:"player"`
	Unit   string `json:"unit,omitempty"`
}

// PlayerResult is a player account view plus the api version.
type PlayerResult struct {
	Version string `json:"version"`
	player.View
}

// AttemptResult is a started attempt plus the api version.
type AttemptResult struct {
	Version string `json:"version"`
	player.Attempt
}

// SubmitResult is a graded submission plus the api version.
type SubmitResult struct {
	Version string `json:"version"`
	player.Submission
}

// ProgressResult is a progress summary plus the api version.
type ProgressResult struct {
	Version string `json:"version"`
	player.ProgressView
}

// MasteryResult is the cohort item-statistics dashboard, hardest
// first.
type MasteryResult struct {
	Version string               `json:"version"`
	Items   []player.MasteryItem `json:"items"`
}

// WithPlayers installs the player engine the service fronts. Without
// it, New builds a default engine over an in-memory store with no
// rate limit.
func WithPlayers(e *player.Engine) Option { return func(s *Service) { s.players = e } }

// Players returns the service's player engine (shared, never nil
// after New).
func (svc *Service) Players() *player.Engine { return svc.players }

// PlayerCreate registers a player.
func (svc *Service) PlayerCreate(ctx context.Context, req PlayerCreateRequest) (*PlayerResult, error) {
	v, err := svc.players.Create(ctx, player.Record{ID: strings.TrimSpace(req.ID), Name: req.Name, Course: req.Course})
	if err != nil {
		return nil, err
	}
	return &PlayerResult{Version: Version, View: v}, nil
}

// PlayerGet returns a player's account view.
func (svc *Service) PlayerGet(ctx context.Context, req PlayerGetRequest) (*PlayerResult, error) {
	v, err := svc.players.Get(ctx, req.ID)
	if err != nil {
		return nil, err
	}
	return &PlayerResult{Version: Version, View: v}, nil
}

// PlayerAttemptStart starts a quiz attempt.
func (svc *Service) PlayerAttemptStart(ctx context.Context, req AttemptStartRequest) (*AttemptResult, error) {
	a, err := svc.players.StartAttempt(ctx, req.Player, req.ModuleRef)
	if err != nil {
		return nil, err
	}
	return &AttemptResult{Version: Version, Attempt: a}, nil
}

// PlayerAttemptSubmit grades a pending attempt.
func (svc *Service) PlayerAttemptSubmit(ctx context.Context, req AttemptSubmitRequest) (*SubmitResult, error) {
	s, err := svc.players.Submit(ctx, req.Player, req.Attempt, req.Answer)
	if err != nil {
		return nil, err
	}
	return &SubmitResult{Version: Version, Submission: s}, nil
}

// PlayerProgress reads or advances a player's course progress.
func (svc *Service) PlayerProgress(ctx context.Context, req ProgressRequest) (*ProgressResult, error) {
	var (
		v   player.ProgressView
		err error
	)
	if strings.TrimSpace(req.Unit) == "" {
		v, err = svc.players.Progress(ctx, req.Player)
	} else {
		v, err = svc.players.Advance(ctx, req.Player, req.Unit)
	}
	if err != nil {
		return nil, err
	}
	return &ProgressResult{Version: Version, ProgressView: v}, nil
}

// PlayerMastery aggregates cohort item statistics across every
// player.
func (svc *Service) PlayerMastery(ctx context.Context) (*MasteryResult, error) {
	items, err := svc.players.Mastery(ctx)
	if err != nil {
		return nil, err
	}
	return &MasteryResult{Version: Version, Items: items}, nil
}

// playerRouteKey is the routing identity of per-player requests: the
// player's whole state lives behind one key, so a cluster sends
// every request touching one player to the same backend — the
// property that keeps pending attempts and store state coherent.
func playerRouteKey(id string) string { return "player|" + strings.TrimSpace(id) }

// RouteKey routes by player identity.
func (r PlayerCreateRequest) RouteKey() string { return playerRouteKey(r.ID) }

// RouteKey routes by player identity.
func (r PlayerGetRequest) RouteKey() string { return playerRouteKey(r.ID) }

// RouteKey routes by player identity.
func (r AttemptStartRequest) RouteKey() string { return playerRouteKey(r.Player) }

// RouteKey routes by player identity.
func (r AttemptSubmitRequest) RouteKey() string { return playerRouteKey(r.Player) }

// RouteKey routes by player identity.
func (r ProgressRequest) RouteKey() string { return playerRouteKey(r.Player) }

// MergeMastery re-aggregates mastery items from several shards into
// one hardest-first list: attempts, corrects, and distractor counts
// sum by prompt, and the result is re-sorted by increasing difficulty
// with the prompt as tiebreak — the same canonical order every shard
// produces locally, so merged output is indistinguishable from a
// single store's.
func MergeMastery(parts ...[]player.MasteryItem) []player.MasteryItem {
	byPrompt := make(map[string]*player.MasteryItem)
	var order []string
	for _, part := range parts {
		for _, it := range part {
			agg, ok := byPrompt[it.Prompt]
			if !ok {
				agg = &player.MasteryItem{Prompt: it.Prompt}
				byPrompt[it.Prompt] = agg
				order = append(order, it.Prompt)
			}
			agg.Attempts += it.Attempts
			agg.Correct += it.Correct
			for text, n := range it.Distractor {
				if agg.Distractor == nil {
					agg.Distractor = make(map[string]int)
				}
				agg.Distractor[text] += n
			}
		}
	}
	out := make([]player.MasteryItem, 0, len(order))
	for _, prompt := range order {
		it := byPrompt[prompt]
		if it.Attempts > 0 {
			it.Difficulty = float64(it.Correct) / float64(it.Attempts)
		}
		out = append(out, *it)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Difficulty != out[b].Difficulty {
			return out[a].Difficulty < out[b].Difficulty
		}
		return out[a].Prompt < out[b].Prompt
	})
	return out
}
