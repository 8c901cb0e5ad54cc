// Package serve is the HTTP face of the api façade, extracted from
// cmd/twserve so every front-end that serves the api.Core surface —
// the twserve binary, its proxy mode, and the test harnesses that
// need a real backend over a socket — shares one route table instead
// of each re-implementing the wire contract.
//
//	GET    /v1/healthz          liveness probe (static, no core call)
//	GET    /v1/catalog          scenario + figure-pattern catalog
//	POST   /v1/generate         api.GenerateRequest  → api.GenerateResult
//	POST   /v1/generate/stream  api.GenerateRequest  → NDJSON frame stream
//	POST   /v1/analyze          api.AnalyzeRequest   → api.AnalyzeResult
//	POST   /v1/module           api.ModuleRequest    → core.Module JSON
//	POST   /v1/campaign         api.CampaignRequest  → bridge.Campaign JSON
//	POST   /v1/player                      create a player account
//	GET    /v1/player/{id}                 account view (history + progress)
//	POST   /v1/player/{id}/attempt         start a quiz attempt on a module
//	POST   /v1/player/{id}/attempt/{n}     submit an answer for attempt n
//	GET    /v1/player/{id}/progress        course-progress summary
//	POST   /v1/player/{id}/progress        complete a unit ({"unit": ...})
//	GET    /v1/player/mastery              cohort item statistics
//	GET    /v1/sessions         in-flight work (merged across backends)
//	DELETE /v1/sessions/{id}    cancel one in-flight run
//	GET    /v1/stats            cache, session and arena counters (per backend too)
//
// Player errors map onto statuses through the package's sentinels: an
// unknown player or unit is 404, a duplicate create / replayed attempt
// / locked unit is 409, and a rate-limited player gets 429 with a
// Retry-After header (and a retry_after_ms field in the error
// envelope). A cluster proxy maps nothing: a backend's error answer
// reaches it as a BackendError, written back verbatim.
//
// A mux built with NewProxyMux additionally mounts the live ring
// membership surface a cluster proxy needs:
//
//	GET    /v1/cluster          current backend list
//	POST   /v1/cluster/add      {"backend": url} — grow the ring
//	POST   /v1/cluster/remove   {"backend": url} — shrink + drain
//
// Every handler is written against api.Core, so the same table
// fronts a single *api.Service or a cluster.Cluster of remote
// twserve processes.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/player"
	"repro/internal/router"
)

// MaxBodyBytes bounds request bodies; an analyze matrix at the
// paper's sizes is a few KB, so 8 MiB leaves room for large posted
// matrices without inviting abuse.
const MaxBodyBytes = 8 << 20

// NewServer builds the hardened http.Server around a handler.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:    addr,
		Handler: h,
		// A client trickling its headers or body must not pin a
		// connection forever; idle keep-alives recycle after two
		// minutes. ReadTimeout comfortably covers an 8 MiB body on a
		// slow classroom link.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
		// WriteTimeout is deliberately absent: it clocks from the end
		// of the request headers, and the streaming route legitimately
		// writes frames for as long as a big run takes — a fixed write
		// deadline would sever healthy long streams. Slow or hung
		// batch readers are bounded by the request context instead
		// (client hangup cancels end to end).
	}
}

// Membership is the live-ring admin surface a cluster proxy exposes:
// grow or shrink the backend set under load. An Add error means the
// backend spec was unusable (HTTP 400); a Remove error means the
// backend is not a member (HTTP 404). Remove reports whether the
// departing backend's in-flight requests drained before the bounded
// drain window closed.
type Membership interface {
	AddBackend(backend string) error
	RemoveBackend(backend string) (drained bool, err error)
	Backends() []string
}

// NewMux builds the route table over a service core.
func NewMux(svc api.Core) http.Handler { return NewProxyMux(svc, nil) }

// NewProxyMux builds the route table plus, when m is non-nil, the
// cluster membership routes.
func NewProxyMux(svc api.Core, m Membership) http.Handler {
	routes := "GET /v1/healthz · GET /v1/catalog · POST /v1/generate · POST /v1/generate/stream · POST /v1/analyze · POST /v1/module · POST /v1/campaign · POST /v1/player · GET /v1/player/{id} · POST /v1/player/{id}/attempt · POST /v1/player/{id}/attempt/{n} · GET|POST /v1/player/{id}/progress · GET /v1/player/mastery · GET /v1/sessions · DELETE /v1/sessions/{id} · GET /v1/stats"
	if m != nil {
		routes += " · GET /v1/cluster · POST /v1/cluster/add · POST /v1/cluster/remove"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			httpError(w, http.StatusNotFound, fmt.Errorf("no such route %s (api version %s)", r.URL.Path, api.Version))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"service": "twserve",
			"version": api.Version,
			"routes":  routes,
		})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the route answers the moment the listener is
		// up, without a round-trip through the core (a proxy's healthz
		// must not depend on its backends being reachable). CI and
		// orchestration poll this instead of a real route.
		writeJSON(w, http.StatusOK, HealthResult{Status: "ok", Version: api.Version})
	})
	mux.HandleFunc("GET /v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Catalog(r.Context()))
	})
	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, r *http.Request) {
		var req api.GenerateRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := svc.Generate(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		w.Header().Set("X-Cache", cacheHeader(res.CacheHit))
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/generate/stream", func(w http.ResponseWriter, r *http.Request) {
		var req api.GenerateRequest
		if !readJSON(w, r, &req) {
			return
		}
		flusher, _ := w.(http.Flusher)
		wroteAny := false
		err := svc.GenerateStream(r.Context(), req, func(f api.StreamFrame) error {
			if !wroteAny {
				// Headers commit on the first frame, after validation has
				// already passed inside GenerateStream.
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				wroteAny = true
			}
			if err := api.EncodeFrame(w, f); err != nil {
				return err
			}
			if flusher != nil {
				// Flush per frame: the whole point of the route is that a
				// window leaves the process the moment it seals, not when
				// the response buffer happens to fill.
				flusher.Flush()
			}
			return nil
		})
		if err == nil {
			return
		}
		if !wroteAny {
			// Nothing committed yet: answer like the batch route (400 for
			// invalid requests, and so on).
			serviceError(w, r, err)
			return
		}
		// Mid-stream failure: the status line is gone, so the error
		// travels in-band as a final frame. A hung-up client won't see
		// it, which is fine — it ended the stream on purpose.
		if encErr := api.EncodeFrame(w, api.StreamFrame{Type: api.FrameError, Error: err.Error()}); encErr == nil && flusher != nil {
			flusher.Flush()
		}
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		var req api.AnalyzeRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := svc.Analyze(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		w.Header().Set("X-Cache", cacheHeader(res.CacheHit))
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/module", func(w http.ResponseWriter, r *http.Request) {
		var req api.ModuleRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := svc.Module(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		var req api.CampaignRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := svc.Campaign(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/player", func(w http.ResponseWriter, r *http.Request) {
		var req api.PlayerCreateRequest
		if !readJSON(w, r, &req) {
			return
		}
		res, err := svc.PlayerCreate(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/player/{id}", func(w http.ResponseWriter, r *http.Request) {
		res, err := svc.PlayerGet(r.Context(), api.PlayerGetRequest{ID: r.PathValue("id")})
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/player/{id}/attempt", func(w http.ResponseWriter, r *http.Request) {
		var req api.AttemptStartRequest
		if !readJSON(w, r, &req) {
			return
		}
		req.Player = r.PathValue("id")
		res, err := svc.PlayerAttemptStart(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/player/{id}/attempt/{n}", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.ParseInt(r.PathValue("n"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad attempt id %q", r.PathValue("n")))
			return
		}
		var req api.AttemptSubmitRequest
		if !readJSON(w, r, &req) {
			return
		}
		req.Player, req.Attempt = r.PathValue("id"), n
		res, err := svc.PlayerAttemptSubmit(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/player/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		res, err := svc.PlayerProgress(r.Context(), api.ProgressRequest{Player: r.PathValue("id")})
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/player/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		var req api.ProgressRequest
		if !readJSON(w, r, &req) {
			return
		}
		req.Player = r.PathValue("id")
		if req.Unit == "" {
			httpError(w, http.StatusBadRequest, errors.New(`advancing needs a unit; send {"unit": "..."} (or GET for the summary)`))
			return
		}
		res, err := svc.PlayerProgress(r.Context(), req)
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	// The literal route wins over GET /v1/player/{id} by the mux's
	// most-specific-pattern rule, so "mastery" is not a usable player
	// ID on the wire (ValidID would admit it).
	mux.HandleFunc("GET /v1/player/mastery", func(w http.ResponseWriter, r *http.Request) {
		res, err := svc.PlayerMastery(r.Context())
		if err != nil {
			serviceError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Sessions())
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad session id %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, CancelResult{Cancelled: svc.CancelSession(id)})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	if m != nil {
		mountCluster(mux, m)
	}
	return mux
}

// CancelResult answers DELETE /v1/sessions/{id}: whether an
// in-flight run with that ID was found and cancelled.
type CancelResult struct {
	Cancelled bool `json:"cancelled"`
}

// MembershipResult answers the cluster admin routes with the
// post-change backend list; Drained reports (on remove) whether the
// departing backend's in-flight requests completed inside the drain
// window.
type MembershipResult struct {
	Backends []string `json:"backends"`
	Drained  *bool    `json:"drained,omitempty"`
}

// membershipReq is the admin request body naming one backend.
type membershipReq struct {
	Backend string `json:"backend"`
}

// mountCluster adds the live-ring admin routes.
func mountCluster(mux *http.ServeMux, m Membership) {
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, MembershipResult{Backends: m.Backends()})
	})
	mux.HandleFunc("POST /v1/cluster/add", func(w http.ResponseWriter, r *http.Request) {
		var req membershipReq
		if !readJSON(w, r, &req) {
			return
		}
		if err := m.AddBackend(req.Backend); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, MembershipResult{Backends: m.Backends()})
	})
	mux.HandleFunc("POST /v1/cluster/remove", func(w http.ResponseWriter, r *http.Request) {
		var req membershipReq
		if !readJSON(w, r, &req) {
			return
		}
		drained, err := m.RemoveBackend(req.Backend)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, MembershipResult{Backends: m.Backends(), Drained: &drained})
	})
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// readJSON decodes a bounded request body, answering 413 when the
// body busts the size cap and 400 on garbage. It reports whether
// the handler should proceed.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return false
	}
	if len(body) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty request body; send a JSON request object"))
		return false
	}
	if err := api.ReadJSON(body, v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// serviceError maps façade errors onto status codes: a backend's
// answer relayed by a cluster proxy keeps its own status, headers and
// body; invalid requests are the caller's fault (400), a cancelled
// request context means the client hung up (499, best-effort — the
// connection is usually gone), a proxy with no live backends is
// temporarily unavailable (503), everything else is a 500.
func serviceError(w http.ResponseWriter, r *http.Request, err error) {
	var limited *player.RateLimitError
	var backend *BackendError
	switch {
	case errors.As(err, &backend):
		// A cluster proxy relays its backend's answer as it came.
		if backend.ContentType != "" {
			w.Header().Set("Content-Type", backend.ContentType)
		}
		if backend.RetryAfter != "" {
			w.Header().Set("Retry-After", backend.RetryAfter)
		}
		w.WriteHeader(backend.Status)
		if _, err := w.Write(backend.Body); err != nil {
			log.Printf("serve: relay backend error: %v", err)
		}
	case errors.Is(err, api.ErrInvalidRequest), errors.Is(err, player.ErrInvalid):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, player.ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.As(err, &limited):
		// Per-player throttle: Retry-After carries whole seconds
		// (rounded up, minimum 1 — the header has no finer unit), the
		// envelope's retry_after_ms the exact wait.
		secs := (limited.RetryAfter + time.Second - 1) / time.Second
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
		ms := limited.RetryAfter.Milliseconds()
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Version: api.Version, RetryAfterMS: &ms})
	case errors.Is(err, player.ErrConflict), errors.Is(err, api.ErrSessionCancelled):
		// A player-state collision (duplicate create, replayed attempt,
		// locked unit), or the run was killed server-side
		// (CancelSession) while this client was still connected.
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, router.ErrEmptyRing):
		// Every backend was removed from the ring: the proxy is up but
		// cannot place the key anywhere. Retryable once an operator
		// adds a backend, so 503 rather than 500.
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(r.Context().Err(), context.Canceled):
		// 499 is nginx's "client closed request"; there is no
		// standard constant.
		httpError(w, 499, err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// errorBody is the uniform error envelope. RetryAfterMS rides along
// on 429s only: it is the machine-readable form of the Retry-After
// header (exact milliseconds, where the header is coarse seconds).
type errorBody struct {
	Error        string `json:"error"`
	Version      string `json:"version"`
	RetryAfterMS *int64 `json:"retry_after_ms,omitempty"`
}

// BackendError is a backend's non-200 answer as a cluster proxy
// received it. serviceError writes it back unchanged, so an error
// crosses the proxy hop byte-identical by construction.
type BackendError struct {
	Status      int
	ContentType string
	RetryAfter  string
	Body        []byte
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("backend answered %d: %s", e.Status, bytes.TrimSpace(e.Body))
}

// HealthResult answers GET /v1/healthz.
type HealthResult struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error(), Version: api.Version})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// api.WriteJSON encodes through a pooled buffer and reaches the
	// socket in one Write — a large generate result no longer
	// allocates a fresh multi-megabyte encode buffer per response.
	if err := api.WriteJSON(w, v); err != nil {
		// Headers are gone; nothing to do but log.
		log.Printf("serve: encode response: %v", err)
	}
}
