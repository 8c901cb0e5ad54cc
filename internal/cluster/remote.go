// Package cluster scales the service across processes: a
// RemoteWorker speaks the full api.Core surface to one backend
// twserve process over HTTP, and a Cluster fronts N of them with a
// consistent spec-hash ring (internal/router) — so a request's
// canonical RouteKey lands on the same backend every time, and that
// backend's warm result cache, singleflight group, and arenas keep
// composing across every client of the proxy.
//
// The wire contract is exactly the one cmd/twserve already serves
// (internal/serve's route table), which is what makes the proxy
// bit-identical to a single process: the proxy decodes a backend's
// JSON into the same wire structs and re-encodes them with the same
// encoder, so bytes in equal bytes out.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/player"
)

// Defaults for the per-backend HTTP posture. The inflight cap bounds
// how many requests the proxy lets pile onto one backend (beyond it,
// callers queue at the proxy instead of thundering the backend); the
// retry/backoff pair covers the transient connection errors a
// backend restart produces during a membership change.
const (
	DefaultInflightLimit = 256
	DefaultRetries       = 2
	DefaultBackoff       = 50 * time.Millisecond
	// probeTimeout bounds the context-free observability calls
	// (Sessions, CacheStats, Stats, CancelSession) so one dead
	// backend cannot hang a /v1/stats scrape of the whole cluster.
	probeTimeout = 5 * time.Second
)

// maxResponseBytes bounds a decoded backend response. Large windowed
// generate results are a few MB; 64 MiB is far above any legitimate
// response while still bounding a misbehaving backend.
const maxResponseBytes = 64 << 20

// WorkerOption configures a RemoteWorker under construction.
type WorkerOption func(*RemoteWorker)

// WithHTTPClient substitutes the HTTP client (tests use a stub; the
// default client carries a pooled keep-alive transport). The caller
// keeps ownership: Close will not tear down a substituted client's
// idle connections.
func WithHTTPClient(c *http.Client) WorkerOption {
	return func(w *RemoteWorker) { w.client, w.transport = c, nil }
}

// WithInflightLimit caps concurrent requests to the backend
// (n ≤ 0 removes the cap).
func WithInflightLimit(n int) WorkerOption {
	return func(w *RemoteWorker) {
		if n <= 0 {
			w.sem = nil
			return
		}
		w.sem = make(chan struct{}, n)
	}
}

// WithRetry sets the retry budget for idempotent requests: up to
// `retries` re-sends after a transport-level failure, with backoff
// doubling from the base between attempts. Zero retries disables.
func WithRetry(retries int, backoff time.Duration) WorkerOption {
	return func(w *RemoteWorker) { w.retries, w.backoff = retries, backoff }
}

// RemoteWorker implements api.Core against one backend twserve
// process. Request methods translate to the backend's HTTP routes;
// observability methods probe with a bounded internal timeout. All
// methods are safe for concurrent use.
type RemoteWorker struct {
	base      string
	client    *http.Client
	transport *http.Transport // owned iff built here; nil for substituted clients
	sem       chan struct{}
	retries   int
	backoff   time.Duration
}

var _ api.Core = (*RemoteWorker)(nil)

// normalizeBase canonicalizes a backend URL: scheme+host(+path),
// no trailing slash. Two spellings of one backend must normalize
// identically or the membership map would hold duplicates.
func normalizeBase(base string) (string, error) {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("cluster: bad backend URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: backend URL %q must be http or https", base)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: backend URL %q has no host", base)
	}
	return base, nil
}

// NewRemoteWorker builds a worker for one backend base URL
// (e.g. "http://10.0.0.7:8080").
func NewRemoteWorker(base string, opts ...WorkerOption) (*RemoteWorker, error) {
	norm, err := normalizeBase(base)
	if err != nil {
		return nil, err
	}
	// A dedicated pooled transport per backend: keep-alives recycle
	// across requests (the proxy's steady state is zero new TCP
	// connections), and removing the backend can tear down exactly its
	// idle pool without touching other members'.
	tr := &http.Transport{
		MaxIdleConns:        DefaultInflightLimit,
		MaxIdleConnsPerHost: DefaultInflightLimit,
		IdleConnTimeout:     90 * time.Second,
	}
	w := &RemoteWorker{
		base:      norm,
		client:    &http.Client{Transport: tr},
		transport: tr,
		sem:       make(chan struct{}, DefaultInflightLimit),
		retries:   DefaultRetries,
		backoff:   DefaultBackoff,
	}
	for _, opt := range opts {
		opt(w)
	}
	return w, nil
}

// Base returns the normalized backend URL.
func (w *RemoteWorker) Base() string { return w.base }

// Close releases the worker's idle connections. In-flight requests
// are unaffected (the Cluster drains them before calling Close).
func (w *RemoteWorker) Close() {
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
}

// acquire takes an inflight slot, waiting until one frees or the
// caller's context ends.
func (w *RemoteWorker) acquire(ctx context.Context) (func(), error) {
	if w.sem == nil {
		return func() {}, nil
	}
	select {
	case w.sem <- struct{}{}:
		return func() { <-w.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// remoteError rebuilds a façade error from a backend's error
// envelope, re-attaching the sentinel the status code encodes so the
// proxy's own error mapping (and its callers' errors.Is checks)
// behave exactly as if the failure were local. The backend's message
// already carries the sentinel's text, so the reconstruction splices
// rather than double-wrapping.
func remoteError(status int, msg string, retryAfterMS int64) error {
	resentinel := func(sentinel error) error {
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
		return fmt.Errorf("%w: %s", sentinel, msg)
	}
	// A status can encode more than one sentinel (400 is both the api
	// and the player invalid-request error; 409 both a cancelled run
	// and a player-state conflict); the message prefix says which one
	// the backend actually raised.
	prefer := func(candidates ...error) error {
		for _, sentinel := range candidates {
			if strings.HasPrefix(msg, sentinel.Error()) {
				return resentinel(sentinel)
			}
		}
		return resentinel(candidates[0])
	}
	switch status {
	case http.StatusBadRequest:
		return prefer(api.ErrInvalidRequest, player.ErrInvalid)
	case http.StatusNotFound:
		return resentinel(player.ErrNotFound)
	case http.StatusConflict:
		return prefer(api.ErrSessionCancelled, player.ErrConflict)
	case http.StatusTooManyRequests:
		// The envelope's retry_after_ms rebuilds the exact
		// RateLimitError: the proxy's serve layer then re-derives the
		// same Retry-After header, body, and message the backend sent.
		return &player.RateLimitError{RetryAfter: time.Duration(retryAfterMS) * time.Millisecond}
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", context.DeadlineExceeded, msg)
	case 499:
		return fmt.Errorf("%w: %s", context.Canceled, msg)
	default:
		return fmt.Errorf("cluster: backend answered status %d: %s", status, msg)
	}
}

// decodeError extracts the backend's error envelope from a non-200
// response body.
func decodeError(status int, body []byte) error {
	var eb struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return remoteError(status, eb.Error, eb.RetryAfterMS)
	}
	return remoteError(status, strings.TrimSpace(string(body)), 0)
}

// retryable reports whether a transport-level failure is worth
// re-sending: the caller must still want the result (context alive)
// — a cancelled context wrapped in a url.Error must not spin the
// backoff loop.
func retryable(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// do runs one JSON request against the backend. Idempotent requests
// (every generate-family request is: the engine is deterministic, so
// re-sending after a connection failure cannot produce a different
// or duplicated result) retry transport-level failures with doubling
// backoff. HTTP-level errors never retry — the backend answered;
// resending would get the same answer.
func (w *RemoteWorker) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	release, err := w.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()

	var payload []byte
	if in != nil {
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("cluster: encode request: %w", err)
		}
	}
	attempts := 1
	if idempotent && w.retries > 0 {
		attempts += w.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(w.backoff << (attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := w.client.Do(req)
		if err != nil {
			if retryable(ctx, err) {
				lastErr = err
				continue
			}
			return err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		resp.Body.Close()
		if err != nil {
			if retryable(ctx, err) {
				lastErr = err
				continue
			}
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp.StatusCode, data)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return fmt.Errorf("cluster: %s %s%s failed after %d attempts: %w", method, w.base, path, attempts, lastErr)
}

// Generate routes the batch request to the backend.
func (w *RemoteWorker) Generate(ctx context.Context, req api.GenerateRequest) (*api.GenerateResult, error) {
	var res api.GenerateResult
	if err := w.do(ctx, http.MethodPost, "/v1/generate", req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// Analyze routes the analyze request to the backend.
func (w *RemoteWorker) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResult, error) {
	var res api.AnalyzeResult
	if err := w.do(ctx, http.MethodPost, "/v1/analyze", req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// Module routes the module request to the backend.
func (w *RemoteWorker) Module(ctx context.Context, req api.ModuleRequest) (*core.Module, error) {
	var res core.Module
	if err := w.do(ctx, http.MethodPost, "/v1/module", req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// Campaign routes the campaign request to the backend.
func (w *RemoteWorker) Campaign(ctx context.Context, req api.CampaignRequest) (*bridge.Campaign, error) {
	var res bridge.Campaign
	if err := w.do(ctx, http.MethodPost, "/v1/campaign", req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// GenerateStream opens the backend's NDJSON stream and hands every
// frame to emit as it arrives — a pure pass-through, so the proxy's
// client sees each window the moment the backend seals it. Streams
// never retry (frames already delivered cannot be unwound) and never
// buffer more than one frame. Hangup propagates upstream: an emit
// failure (the proxy's client disconnected) cancels the backend
// request mid-body, which the backend turns into an end-to-end run
// cancellation — the cross-process mirror of the in-process
// emit-failure fix.
func (w *RemoteWorker) GenerateStream(ctx context.Context, req api.GenerateRequest, emit func(api.StreamFrame) error) error {
	release, err := w.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()

	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: encode request: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(sctx, http.MethodPost, w.base+"/v1/generate/stream", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		return decodeError(resp.StatusCode, data)
	}

	dec := api.NewFrameDecoder(resp.Body)
	sawSummary := false
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			if !sawSummary {
				return fmt.Errorf("cluster: backend %s truncated the stream before the summary frame", w.base)
			}
			return nil
		}
		if err != nil {
			// A decode failure after our own cancel is the cancel, not a
			// protocol violation by the backend.
			if cause := sctx.Err(); cause != nil {
				return cause
			}
			return err
		}
		if f.Type == api.FrameError {
			// The backend failed mid-run; surface its message as the
			// stream error (the proxy's mux re-emits it in-band).
			return errors.New(f.Error)
		}
		if f.Type == api.FrameSummary {
			sawSummary = true
		}
		if err := emit(f); err != nil {
			// The proxy's own consumer hung up: abort the backend request
			// so the upstream run cancels instead of streaming into void.
			cancel()
			return err
		}
	}
}

// PlayerCreate registers a player on the backend. Mutations never
// retry: a create that landed but lost its response would turn a
// retry into a spurious 409.
func (w *RemoteWorker) PlayerCreate(ctx context.Context, req api.PlayerCreateRequest) (*api.PlayerResult, error) {
	var res api.PlayerResult
	if err := w.do(ctx, http.MethodPost, "/v1/player", req, &res, false); err != nil {
		return nil, err
	}
	return &res, nil
}

// PlayerGet reads a player's account view (idempotent).
func (w *RemoteWorker) PlayerGet(ctx context.Context, req api.PlayerGetRequest) (*api.PlayerResult, error) {
	var res api.PlayerResult
	if err := w.do(ctx, http.MethodGet, "/v1/player/"+url.PathEscape(req.ID), nil, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// PlayerAttemptStart starts an attempt on the backend. Not retried:
// each start consumes an attempt ID.
func (w *RemoteWorker) PlayerAttemptStart(ctx context.Context, req api.AttemptStartRequest) (*api.AttemptResult, error) {
	var res api.AttemptResult
	path := "/v1/player/" + url.PathEscape(req.Player) + "/attempt"
	if err := w.do(ctx, http.MethodPost, path, req, &res, false); err != nil {
		return nil, err
	}
	return &res, nil
}

// PlayerAttemptSubmit submits an answer on the backend. Not retried:
// a submit that landed but lost its response would turn a retry into
// a spurious 409.
func (w *RemoteWorker) PlayerAttemptSubmit(ctx context.Context, req api.AttemptSubmitRequest) (*api.SubmitResult, error) {
	var res api.SubmitResult
	path := fmt.Sprintf("/v1/player/%s/attempt/%d", url.PathEscape(req.Player), req.Attempt)
	if err := w.do(ctx, http.MethodPost, path, req, &res, false); err != nil {
		return nil, err
	}
	return &res, nil
}

// PlayerProgress reads (Unit empty) or advances (Unit set) progress
// on the backend. Advancing is idempotent server-side (re-completing
// a done unit is a no-op), so both paths may retry.
func (w *RemoteWorker) PlayerProgress(ctx context.Context, req api.ProgressRequest) (*api.ProgressResult, error) {
	var res api.ProgressResult
	path := "/v1/player/" + url.PathEscape(req.Player) + "/progress"
	if strings.TrimSpace(req.Unit) == "" {
		if err := w.do(ctx, http.MethodGet, path, nil, &res, true); err != nil {
			return nil, err
		}
		return &res, nil
	}
	if err := w.do(ctx, http.MethodPost, path, req, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// PlayerMastery reads the backend's cohort statistics (idempotent).
func (w *RemoteWorker) PlayerMastery(ctx context.Context) (*api.MasteryResult, error) {
	var res api.MasteryResult
	if err := w.do(ctx, http.MethodGet, "/v1/player/mastery", nil, &res, true); err != nil {
		return nil, err
	}
	return &res, nil
}

// Catalog probes the backend's catalog. api.Core's signature has no
// error path; an unreachable backend answers with an empty (but
// versioned) catalog rather than a panic.
func (w *RemoteWorker) Catalog(ctx context.Context) *api.CatalogResult {
	var res api.CatalogResult
	if err := w.do(ctx, http.MethodGet, "/v1/catalog", nil, &res, true); err != nil {
		return &api.CatalogResult{Version: api.Version}
	}
	return &res
}

// probeCtx bounds the context-free observability calls.
func probeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), probeTimeout)
}

// Sessions lists the backend's in-flight runs, each tagged with this
// backend's URL (session IDs are only process-unique).
func (w *RemoteWorker) Sessions() []api.SessionInfo {
	ctx, cancel := probeCtx()
	defer cancel()
	var res []api.SessionInfo
	if err := w.do(ctx, http.MethodGet, "/v1/sessions", nil, &res, true); err != nil {
		return nil
	}
	for i := range res {
		res[i].Backend = w.base
	}
	return res
}

// CancelSession cancels the backend's session with that ID.
func (w *RemoteWorker) CancelSession(id int64) bool {
	ctx, cancel := probeCtx()
	defer cancel()
	var res struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := w.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", id), nil, &res, false); err != nil {
		return false
	}
	return res.Cancelled
}

// CacheStats reads the backend's fleet-aggregate cache counters.
func (w *RemoteWorker) CacheStats() api.CacheStats {
	st, _ := w.cacheStats()
	return st
}

func (w *RemoteWorker) cacheStats() (api.CacheStats, error) {
	ctx, cancel := probeCtx()
	defer cancel()
	var res api.CacheStats
	err := w.do(ctx, http.MethodGet, "/v1/cache", nil, &res, true)
	return res, err
}

// Stats reads the backend's full per-worker stats report.
func (w *RemoteWorker) Stats() api.StatsReport {
	st, _ := w.stats()
	return st
}

func (w *RemoteWorker) stats() (api.StatsReport, error) {
	ctx, cancel := probeCtx()
	defer cancel()
	var res api.StatsReport
	err := w.do(ctx, http.MethodGet, "/v1/stats", nil, &res, true)
	return res, err
}
