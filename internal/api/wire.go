package api

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// Pooled wire encoding. Large /v1/generate responses and stream
// frames used to marshal into a fresh byte slice per call — for a
// 300-host windowed result that is megabytes of garbage per request.
// The encoders here marshal into pooled buffers and hand the bytes to
// the writer in a single Write, so the serve path's steady-state
// encoding cost is the copy onto the socket, not the allocation.
//
// The buffers live in a sync.Pool (unlike the generation arenas'
// explicit free-lists): encode buffers are not part of the
// deterministic allocs/op CI gate, and GC-mediated retention is
// exactly right for bursty response sizes.

// maxPooledEncodeBytes bounds what a drained encode buffer may retain
// when refiled: a rare oversized response should not pin megabytes in
// the pool forever.
const maxPooledEncodeBytes = 1 << 20

type wireEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var wirePool = sync.Pool{New: func() any {
	we := &wireEncoder{}
	we.enc = json.NewEncoder(&we.buf)
	return we
}}

func getWireEncoder() *wireEncoder {
	we := wirePool.Get().(*wireEncoder)
	we.buf.Reset()
	return we
}

func putWireEncoder(we *wireEncoder) {
	if we.buf.Cap() > maxPooledEncodeBytes {
		return
	}
	wirePool.Put(we)
}

// WriteJSON encodes v as two-space-indented JSON followed by a
// newline (the twserve response format) through a pooled buffer,
// reaching the writer in a single Write call.
//
// A view that carries a stored body — a cache hit from the service,
// or an answer a cluster proxy read with ReadJSON — is not encoded at
// all: WriteJSON writes those bytes, which are exactly what encoding
// the view would produce. The body is bound to the view's address, so
// a copy of the view, changed or not, is encoded afresh.
func WriteJSON(w io.Writer, v any) error {
	if b := stored(v); b != nil {
		_, err := w.Write(b)
		return err
	}
	we := getWireEncoder()
	defer putWireEncoder(we)
	we.enc.SetIndent("", "  ")
	if err := we.enc.Encode(v); err != nil {
		return err
	}
	_, err := w.Write(we.buf.Bytes())
	return err
}

// ReadJSON decodes data, a body WriteJSON wrote, into v: the pair of
// WriteJSON. A *GenerateResult or *AnalyzeResult also keeps data as
// its stored body, so WriteJSON hands a proxied answer on byte for
// byte instead of re-encoding it. The caller must not change data
// afterwards.
func ReadJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	switch r := v.(type) {
	case *GenerateResult:
		r.body, r.self = data, r
	case *AnalyzeResult:
		r.body, r.self = data, r
	}
	return nil
}

// stored returns the body a view carries while it still sits at the
// address the body was attached at; nil otherwise.
func stored(v any) []byte {
	switch r := v.(type) {
	case *GenerateResult:
		if r != nil && r.self == r {
			return r.body
		}
	case *AnalyzeResult:
		if r != nil && r.self == r {
			return r.body
		}
	}
	return nil
}

// storedBody is one response encoded once and written verbatim by
// every later WriteJSON: the cache entry's holder for a hit body.
type storedBody struct {
	once sync.Once
	b    []byte
}

// of returns the stored body, encoding v into it on the first call.
// A v that fails to encode stores nothing, so WriteJSON encodes the
// view afresh and reports the error itself.
func (s *storedBody) of(v any) []byte {
	s.once.Do(func() {
		we := getWireEncoder()
		defer putWireEncoder(we)
		we.enc.SetIndent("", "  ")
		if we.enc.Encode(v) == nil {
			s.b = bytes.Clone(we.buf.Bytes())
		}
	})
	return s.b
}
