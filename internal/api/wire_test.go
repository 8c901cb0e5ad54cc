package api

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// freshEncode is what WriteJSON wrote for every view before hits
// carried stored bodies: the view encoded through encoding/json with
// the wire format's indent and trailing newline.
func freshEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHitWritesStoredBody: a cache hit's WriteJSON output comes from
// the entry's stored body and is byte-identical to a fresh encode of
// the same view, for both include_matrices variants and for the
// spec-path analyze answer. Editing the first hit's view cannot reach
// the body, which was encoded before the view was handed out.
func TestHitWritesStoredBody(t *testing.T) {
	ctx := context.Background()
	svc := New()
	for _, matrices := range []bool{false, true} {
		req := quick(WithHosts(24))
		req.IncludeMatrices = matrices
		if _, err := svc.Generate(ctx, req); err != nil {
			t.Fatal(err)
		}
		first, err := svc.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !first.CacheHit || first.body == nil || first.self != first {
			t.Fatalf("matrices=%v: hit view carries no stored body", matrices)
		}
		want := freshEncode(t, first)
		first.Labels[0] = "corrupted"
		hit, err := svc.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := writeJSON(t, hit); !bytes.Equal(got, want) {
			t.Errorf("matrices=%v: stored body differs from a fresh encode\nstored: %.300s\nfresh:  %.300s", matrices, got, want)
		}
		if !bytes.Equal(freshEncode(t, hit), want) {
			t.Errorf("matrices=%v: second hit's view differs from the first", matrices)
		}
	}

	areq := AnalyzeRequest{Spec: "scan", Seed: 1, Hosts: 24, Duration: 4, Rate: 4, Scale: 1}
	if _, err := svc.Analyze(ctx, areq); err != nil {
		t.Fatal(err)
	}
	ares, err := svc.Analyze(ctx, areq)
	if err != nil {
		t.Fatal(err)
	}
	if !ares.CacheHit || ares.body == nil || ares.self != ares {
		t.Fatal("analyze hit carries no stored body")
	}
	if got, want := writeJSON(t, ares), freshEncode(t, ares); !bytes.Equal(got, want) {
		t.Errorf("analyze stored body differs from a fresh encode\nstored: %s\nfresh:  %s", got, want)
	}
}

// TestConcurrentFirstHitsShareOneBody: hits racing to build an
// entry's body all write the same bytes from one encoding.
func TestConcurrentFirstHitsShareOneBody(t *testing.T) {
	ctx := context.Background()
	svc := New()
	req := quick(WithMatrices())
	if _, err := svc.Generate(ctx, req); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.Generate(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, res); err != nil {
				t.Error(err)
			}
			bodies[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
			t.Fatalf("hit %d wrote %d bytes that differ from hit 0's", i, len(b))
		}
	}
}

// TestChangedCopyEncodesAfresh: the stored body is bound to the view
// it was attached to, so a caller's changed copy is written as it now
// is, not as the cache entry was.
func TestChangedCopyEncodesAfresh(t *testing.T) {
	ctx := context.Background()
	svc := New()
	req := quick(WithMatrices())
	for range 2 {
		if _, err := svc.Generate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.Generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cp := *res
	cp.Timings = Timings{Generate: 12345}
	got := writeJSON(t, &cp)
	if !bytes.Equal(got, freshEncode(t, &cp)) || !strings.Contains(string(got), `"generate_ns": 12345`) {
		t.Errorf("changed copy written stale: %.300s", got)
	}
	if bytes.Equal(got, writeJSON(t, res)) {
		t.Error("changed copy and the hit view wrote the same bytes")
	}

	areq := AnalyzeRequest{Spec: "scan", Seed: 1, Hosts: 10, Duration: 4, Rate: 4, Scale: 1}
	for range 2 {
		if _, err := svc.Analyze(ctx, areq); err != nil {
			t.Fatal(err)
		}
	}
	ares, err := svc.Analyze(ctx, areq)
	if err != nil {
		t.Fatal(err)
	}
	acp := *ares
	acp.Spec = "changed"
	if got := writeJSON(t, &acp); !bytes.Equal(got, freshEncode(t, &acp)) {
		t.Errorf("changed analyze copy written stale: %s", got)
	}
}

// TestMissHoldsNoBody: the cold path stores nothing beyond the
// result; each variant's body appears on that variant's first hit.
func TestMissHoldsNoBody(t *testing.T) {
	ctx := context.Background()
	svc := New()
	req := quick()
	miss, err := svc.Generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.self != nil || miss.body != nil {
		t.Fatal("miss view carries a stored body")
	}
	v, ok := svc.cache.get(req.RouteKey())
	if !ok {
		t.Fatal("miss did not enter the cache")
	}
	entry := v.(*GenerateResult)
	if entry.hits == nil {
		t.Fatal("cached result has no body holder")
	}
	bodies := func() [3]bool {
		return [3]bool{entry.hits.generate[0].b != nil, entry.hits.generate[1].b != nil, entry.hits.analyze.b != nil}
	}
	if got := bodies(); got != [3]bool{} {
		t.Fatalf("entry that only missed holds bodies %v", got)
	}
	req.IncludeMatrices = true
	if _, err := svc.Generate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := bodies(); got != [3]bool{false, true, false} {
		t.Fatalf("after one include_matrices hit the entry holds %v", got)
	}
}

// TestReadJSONKeepsBody: a result read with ReadJSON is written back
// as the bytes it was read from, even where encoding it would differ;
// a copy is encoded afresh.
func TestReadJSONKeepsBody(t *testing.T) {
	data := []byte(`{"version":"` + Version + `","spec":"scan","hosts":10,"cache_hit":true}`)
	var res GenerateResult
	if err := ReadJSON(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Spec != "scan" {
		t.Fatalf("decoded %+v", res)
	}
	if got := writeJSON(t, &res); !bytes.Equal(got, data) {
		t.Errorf("read body not written verbatim: %s", got)
	}
	cp := res
	if got := writeJSON(t, &cp); !bytes.Equal(got, freshEncode(t, &cp)) {
		t.Errorf("copy of a read result not encoded afresh: %s", got)
	}

	var ares AnalyzeResult
	if err := ReadJSON(data, &ares); err != nil {
		t.Fatal(err)
	}
	if got := writeJSON(t, &ares); !bytes.Equal(got, data) {
		t.Errorf("read analyze body not written verbatim: %s", got)
	}

	var req GenerateRequest
	if err := ReadJSON([]byte(`{"spec":"scan","hosts":12}`), &req); err != nil || req.Hosts != 12 {
		t.Fatalf("ReadJSON request = %+v, %v", req, err)
	}
	if err := ReadJSON([]byte(`{"spec":`), &res); err == nil {
		t.Error("truncated body decoded")
	}
}

// TestHitCopiesBehaviorReading: the aggregate's behavior reading is a
// pointer into the cached result, so a hit view and a spec-path
// analyze answer each get their own; editing one must not reach the
// cache or the bodies later hits are written from.
func TestHitCopiesBehaviorReading(t *testing.T) {
	ctx := context.Background()
	svc := New()
	for _, spec := range []string{"worm", "scan", "flashcrowd", "exfil", "beacon", "ddos"} {
		req := NewGenerateRequest(spec, WithSeed(2), WithHosts(24))
		miss, err := svc.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if miss.Aggregate.Behavior == nil {
			continue
		}
		label := miss.Aggregate.Behavior.Label
		miss.Aggregate.Behavior.Label = "corrupted"
		areq := AnalyzeRequest{Spec: spec, Seed: 2, Hosts: 24}
		ares, err := svc.Analyze(ctx, areq)
		if err != nil {
			t.Fatal(err)
		}
		ares.Aggregate.Behavior.Label = "corrupted"
		req.IncludeMatrices = true
		hit, err := svc.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := svc.Analyze(ctx, areq)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Aggregate.Behavior.Label != label || again.Aggregate.Behavior.Label != label {
			t.Fatalf("%s: editing a view's behavior reading reached the cache: %q, %q, want %q",
				spec, hit.Aggregate.Behavior.Label, again.Aggregate.Behavior.Label, label)
		}
		if strings.Contains(string(writeJSON(t, hit)), "corrupted") {
			t.Fatalf("%s: a stored body carries an edited reading", spec)
		}
		return
	}
	t.Fatal("no scenario produced a behavior reading")
}
