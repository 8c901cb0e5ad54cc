package api

import (
	"context"
	"io"
	"testing"
)

// benchRequest is heavy enough that generation dominates: the
// cold/hot pair below is the acceptance measurement that a cache hit
// is far cheaper than a cold generation.
func benchRequest() GenerateRequest {
	return NewGenerateRequest("overlay(background, sequence(scan, ddos))",
		WithSeed(42), WithHosts(200), WithParams(40, 8, 4), WithWindow(10))
}

// BenchmarkGenerateCold measures the uncached pipeline: a fresh
// service (empty cache) per iteration.
func BenchmarkGenerateCold(b *testing.B) {
	req := benchRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := New()
		if _, err := svc.Generate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// cold300Request is the PR 7 acceptance workload: the in-process cold
// generate path on a 300-host network, 1.2M-event budget, windowed.
// Workers are pinned so the measurement is machine-independent.
func cold300Request() GenerateRequest {
	return NewGenerateRequest("background",
		WithSeed(7), WithHosts(300), WithWorkers(4), WithParams(600, 2000, 1), WithWindow(10))
}

// benchCold300 measures steady-state cold generation on one service:
// the cache is disabled so every iteration runs the whole
// generate→merge→compact pipeline, and one priming request runs
// before the timer so a pooled service is measured with warm arenas
// (the steady state a served process lives in) rather than on its
// very first fill.
func benchCold300(b *testing.B, opts ...Option) {
	svc := New(append([]Option{WithCacheCapacity(0)}, opts...)...)
	req := cold300Request()
	if _, err := svc.Generate(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Generate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCold300 is the pooled acceptance benchmark: its
// allocs/op against BenchmarkGenerateCold300Unpooled is the measured
// win, and its committed BENCH_PR7.json value is the CI regression
// gate.
func BenchmarkGenerateCold300(b *testing.B) { benchCold300(b) }

// BenchmarkGenerateCold300Unpooled is the same workload with the
// arena disabled: the pre-PR 7 allocation behaviour, kept runnable so
// the pooled/unpooled gap stays measurable on any machine.
func BenchmarkGenerateCold300Unpooled(b *testing.B) { benchCold300(b, WithoutPooling()) }

// BenchmarkGenerateCacheHit measures the classroom hot path: one
// service, primed once, then repeated identical requests.
func BenchmarkGenerateCacheHit(b *testing.B) {
	svc := New()
	req := benchRequest()
	if _, err := svc.Generate(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Generate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("hot request missed the cache")
		}
	}
}

// BenchmarkWriteCacheHit measures a served warm hit in-process: the
// lesson's largest shape (a 48-host windowed generate with
// include_matrices), primed with a miss and one hit, then looked up
// and written. The hit writes the entry's stored body, so the write
// is one copy, and allocs/op is the view finishResult builds; CI
// gates it against BENCH_PR7.json.
func BenchmarkWriteCacheHit(b *testing.B) {
	svc := New()
	req := NewGenerateRequest("ddos", WithSeed(7), WithHosts(48), WithWindow(15), WithMatrices())
	for range 2 {
		if _, err := svc.Generate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Generate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteJSON(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}
