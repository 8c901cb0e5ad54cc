// Package cluster scales the service across processes: a Cluster
// fronts N backend twserve processes with a consistent spec-hash ring
// (internal/router), so a request's canonical RouteKey lands on the
// same backend every time, and that backend's warm result cache,
// singleflight group, and arenas keep composing across every client
// of the proxy.
//
// The wire contract is exactly the one cmd/twserve already serves
// (internal/serve's route table). A 200 body is decoded into the same
// wire struct the backend encoded, through api.ReadJSON: a generate
// or analyze result keeps the body it was read from, so the proxy's
// serve layer writes the backend's bytes back verbatim, and any other
// result is re-encoded with the same encoder, so bytes in equal bytes
// out. Any other answer travels as a serve.BackendError, which the
// proxy writes back verbatim: status, Content-Type, Retry-After and
// body.
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
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// Defaults for the per-backend HTTP posture. The inflight cap bounds
// how many requests the proxy lets pile onto one backend (beyond it,
// callers queue at the proxy instead of thundering the backend); the
// retry/backoff pair covers the transient connection errors a
// backend restart produces during a membership change.
const (
	inflightLimit  = 256
	defaultRetries = 2
	defaultBackoff = 50 * time.Millisecond
	// probeTimeout bounds every fan-out probe (stats, sessions, cache,
	// cancel, mastery) so one hung backend cannot hang a scrape of the
	// whole cluster.
	probeTimeout = 5 * time.Second
	// maxResponseBytes bounds a backend response body. Large windowed
	// generate results are a few MB; 64 MiB is far above any
	// legitimate response while still bounding a misbehaving backend.
	maxResponseBytes = 64 << 20
)

// transport is one backend member: its HTTP client and inflight cap,
// plus the in-flight counter RemoveBackend drains against. Safe for
// concurrent use.
type transport struct {
	base    string
	client  *http.Client
	sem     chan struct{} // inflight cap
	retries int
	backoff time.Duration
	maxBody int64
	wg      sync.WaitGroup
}

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

// newTransport builds the transport for a normalized base URL. Each
// backend gets a dedicated pooled keep-alive transport: the proxy's
// steady state is zero new TCP connections, and removing the backend
// tears down exactly its idle pool without touching other members'.
func newTransport(base string) *transport {
	return &transport{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        inflightLimit,
			MaxIdleConnsPerHost: inflightLimit,
			IdleConnTimeout:     90 * time.Second,
		}},
		sem:     make(chan struct{}, inflightLimit),
		retries: defaultRetries,
		backoff: defaultBackoff,
		maxBody: maxResponseBytes,
	}
}

// acquire takes an inflight slot, waiting until one frees or the
// caller's context ends.
func (t *transport) acquire(ctx context.Context) (func(), error) {
	select {
	case t.sem <- struct{}{}:
		return func() { <-t.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// forward carries a backend's non-200 answer to the proxy's client
// unchanged.
func forward(resp *http.Response, body []byte) error {
	return &serve.BackendError{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		Body:        body,
	}
}

// retryable reports whether a transport-level failure is worth
// re-sending: the caller must still want the result (context alive)
// — a cancelled context wrapped in a url.Error must not spin the
// backoff loop.
func retryable(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// do runs one JSON request against the backend and decodes a 200
// body into out. Idempotent requests (every generate-family request
// is: the engine is deterministic, so re-sending after a connection
// failure cannot produce a different or duplicated result) retry
// transport-level failures with doubling backoff. HTTP-level errors
// never retry — the backend answered; resending would get the same
// answer — and come back as a serve.BackendError.
func (t *transport) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	release, err := t.acquire(ctx)
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
	if idempotent && t.retries > 0 {
		attempts += t.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(t.backoff << (attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := t.client.Do(req)
		if err != nil {
			if retryable(ctx, err) {
				lastErr = err
				continue
			}
			return err
		}
		// One byte past the bound tells a body that hit the limit from
		// one that merely reached it, so an oversized answer fails as
		// such instead of as a truncated-JSON decode error.
		data, err := io.ReadAll(io.LimitReader(resp.Body, t.maxBody+1))
		resp.Body.Close()
		if err != nil {
			if retryable(ctx, err) {
				lastErr = err
				continue
			}
			return err
		}
		if int64(len(data)) > t.maxBody {
			return fmt.Errorf("cluster: %s %s%s: response exceeds the %d MiB limit", method, t.base, path, t.maxBody>>20)
		}
		if resp.StatusCode != http.StatusOK {
			return forward(resp, data)
		}
		// ReadJSON keeps a generate or analyze body as the result's
		// stored encoding, so the proxy's WriteJSON forwards the
		// backend's bytes instead of re-encoding them.
		return api.ReadJSON(data, out)
	}
	return fmt.Errorf("cluster: %s %s%s failed after %d attempts: %w", method, t.base, path, attempts, lastErr)
}

// stream opens the backend's NDJSON stream and hands every frame to
// emit as it arrives — a pure pass-through, so the proxy's client
// sees each window the moment the backend seals it. Streams never
// retry (frames already delivered cannot be unwound) and never
// buffer more than one frame. Hangup propagates upstream: an emit
// failure (the proxy's client disconnected) cancels the backend
// request mid-body, which the backend turns into an end-to-end run
// cancellation.
func (t *transport) stream(ctx context.Context, req api.GenerateRequest, emit func(api.StreamFrame) error) error {
	release, err := t.acquire(ctx)
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
	hreq, err := http.NewRequestWithContext(sctx, http.MethodPost, t.base+"/v1/generate/stream", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(resp.Body, t.maxBody))
		if err != nil {
			return err
		}
		return forward(resp, data)
	}

	dec := api.NewFrameDecoder(resp.Body)
	sawSummary := false
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			if !sawSummary {
				return fmt.Errorf("cluster: backend %s truncated the stream before the summary frame", t.base)
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
