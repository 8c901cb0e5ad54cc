package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice: the smallest value with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), p)]
}

// percentileRank is the 0-based index percentile reads from n samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// beyond counts the samples ranked strictly above the p-th percentile
// of n samples: how many observations the percentile rests on from
// above.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - percentileRank(n, p)
}

// median returns the middle value of xs (the mean of the middle two
// for an even count) without reordering xs. It returns 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// span is one timed call at a layer boundary. Spans of one request
// share a request ID; Parent names the enclosing span (0 for a root).
type span struct {
	ID, Parent int
	Req        int64
	Name       string
	Start, End time.Duration
	Failed     bool
	// Hit marks a result-cache hit on generate spans.
	Hit bool
	// N is the span's work count: response bytes on serve spans, the
	// replayed history length on player.submit, events on
	// netsim.generate and stored cells on matrix.fold.
	N int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes maps every span ID to its self time: its duration minus
// the part of its interval its child spans cover. Overlapping children
// count once, and a child reaching outside its parent counts only
// inside it.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans'
// intervals covers.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
