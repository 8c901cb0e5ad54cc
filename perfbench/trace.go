package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the traced pass's spans in memory. While off it
// records nothing, and its wrappers only pass calls through.
type recorder struct {
	on    atomic.Bool
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

type spanCtxKey struct{}

// spanCtx is what a span hands its callees through the context.
type spanCtx struct {
	id  int
	req int64
}

// open is a started span; end records it.
type open struct {
	rec    *recorder
	id     int
	parent int
	req    int64
	start  time.Duration
}

// begin starts a span under whatever span ctx carries; a span with no
// parent starts a new request. It returns nil while the recorder is
// off.
func (r *recorder) begin(ctx context.Context) *open {
	if !r.on.Load() {
		return nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	o := &open{rec: r, id: int(r.ids.Add(1)), parent: parent.id, req: parent.req, start: time.Since(r.base)}
	if o.req == 0 {
		o.req = int64(o.id)
	}
	return o
}

// ctx returns a context in which o is the enclosing span.
func (o *open) ctx(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{id: o.id, req: o.req})
}

// end records the span.
func (o *open) end(name string, failed, hit bool, n int) {
	if o == nil {
		return
	}
	s := span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: name,
		Start: o.start, End: time.Since(o.rec.base), Failed: failed, Hit: hit, N: n,
	}
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, s)
	o.rec.mu.Unlock()
}

// take returns the spans recorded so far and clears the store.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// statusWriter counts a response's status and bytes.
type statusWriter struct {
	http.ResponseWriter
	status, n int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// handler wraps an HTTP handler in a root span named name.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		o := r.begin(q.Context())
		if o == nil {
			h.ServeHTTP(w, q)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, q.WithContext(o.ctx(q.Context())))
		o.end(name, sw.status >= 400, false, sw.n)
	})
}

// spanSet is a filtered view of recorded spans.
type spanSet []span

// named returns the spans called name or, when name ends in ".",
// whose name starts with it.
func (s spanSet) named(name string) spanSet {
	return s.where(func(sp span) bool {
		return sp.Name == name || (strings.HasSuffix(name, ".") && strings.HasPrefix(sp.Name, name))
	})
}

func (s spanSet) where(keep func(span) bool) spanSet {
	var out spanSet
	for _, sp := range s {
		if keep(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// durs returns the span durations in the unit u.
func (s spanSet) durs(u time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, sp := range s {
		out[i] = float64(sp.dur()) / float64(u)
	}
	return out
}

// counts returns the spans' work counts.
func (s spanSet) counts() []float64 {
	out := make([]float64, len(s))
	for i, sp := range s {
		out[i] = float64(sp.N)
	}
	return out
}

// serveSelf returns the self times of the named serve spans in µs.
func serveSelf(spans spanSet, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, sp := range spans.named(name) {
		out = append(out, float64(self[sp.ID])/float64(time.Microsecond))
	}
	return out
}

// failedByLayer counts failed spans per layer, the name before the
// first dot.
func failedByLayer(spans []span) map[string]int {
	out := make(map[string]int)
	for _, sp := range spans {
		if sp.Failed {
			layer, _, _ := strings.Cut(sp.Name, ".")
			out[layer]++
		}
	}
	return out
}

// maxShare returns the largest share of the spans that one name
// holds.
func maxShare(s spanSet) float64 {
	byName := make(map[string]int)
	top := 0
	for _, sp := range s {
		byName[sp.Name]++
		top = max(top, byName[sp.Name])
	}
	return float64(top) / float64(max(len(s), 1))
}
