package router

import (
	"errors"
	"fmt"
	"testing"
)

// mustPick resolves a key on a ring the test knows is non-empty.
func mustPick(t *testing.T, r *Ring, key string) int {
	t.Helper()
	w, err := r.Pick(key)
	if err != nil {
		t.Fatalf("Pick(%q): %v", key, err)
	}
	return w
}

// TestRingEmptyPickErrors: a zero-worker ring and a fully-removed
// ring both answer Pick with ErrEmptyRing — never a panic or an
// index-out-of-range — so a proxy drained of backends can turn the
// condition into a 503.
func TestRingEmptyPickErrors(t *testing.T) {
	empty := NewRing(0)
	if _, err := empty.Pick("any-key"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("Pick on zero-worker ring: err = %v, want ErrEmptyRing", err)
	}

	drained := NewRing(3)
	for w := 0; w < 3; w++ {
		drained.Remove(w)
	}
	if drained.Size() != 0 {
		t.Fatalf("size after removing every worker = %d", drained.Size())
	}
	if _, err := drained.Pick("any-key"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("Pick on fully-removed ring: err = %v, want ErrEmptyRing", err)
	}

	// Recovery: adding a worker back makes the ring servable again.
	drained.Add(1)
	if w := mustPick(t, drained, "any-key"); w != 1 {
		t.Fatalf("recovered ring picked worker %d, want 1", w)
	}
}

// testKeys builds K canonical-shaped keys like the ones the service
// actually routes.
func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("v1|gen|spec=overlay(background,scan-%d)|n=%d|seed=%d|dur=40|rate=8|scale=4|win=10",
			i%97, 10+i%500, i)
	}
	return keys
}

// TestRingPickDeterministic: the same key on the same fleet always
// lands on the same worker, across repeated picks and across
// independently built rings — the property that lets any front-end
// replica route identically without coordination.
func TestRingPickDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		a, b := NewRing(n), NewRing(n)
		for _, key := range testKeys(500) {
			w := mustPick(t, a, key)
			if w < 0 || w >= n {
				t.Fatalf("n=%d: Pick(%q) = %d, out of range", n, key, w)
			}
			if mustPick(t, a, key) != w || mustPick(t, b, key) != w {
				t.Fatalf("n=%d: Pick(%q) unstable across picks or ring builds", n, key)
			}
		}
	}
}

// TestRingSingleWorkerOwnsEverything: a 1-worker ring is the
// degenerate identity a one-backend proxy leans on.
func TestRingSingleWorkerOwnsEverything(t *testing.T) {
	r := NewRing(1)
	for _, key := range testKeys(100) {
		if w := mustPick(t, r, key); w != 0 {
			t.Fatalf("1-worker ring sent %q to worker %d", key, w)
		}
	}
}

// TestRingDistribution: with DefaultReplicas vnodes the keyspace
// split is usably even — every worker owns real load, and no worker
// owns more than ~2× its fair share.
func TestRingDistribution(t *testing.T) {
	const K = 20000
	for _, n := range []int{2, 4, 8} {
		r := NewRing(n)
		counts := make([]int, n)
		for _, key := range testKeys(K) {
			counts[mustPick(t, r, key)]++
		}
		fair := K / n
		for w, c := range counts {
			if c < fair/3 {
				t.Errorf("n=%d: worker %d owns %d of %d keys (fair %d) — starved", n, w, c, K, fair)
			}
			if c > 2*fair {
				t.Errorf("n=%d: worker %d owns %d of %d keys (fair %d) — overloaded", n, w, c, K, fair)
			}
		}
	}
}

// TestRingBoundedMovementOnGrow is the consistent-hashing property
// the tentpole names: growing the fleet from N to N+1 moves at most
// ~K/(N+1) keys (we allow 2× for vnode variance), and every moved
// key moves *to the new worker* — no key shuffles between old
// workers.
func TestRingBoundedMovementOnGrow(t *testing.T) {
	const K = 20000
	keys := testKeys(K)
	for _, n := range []int{1, 2, 4, 7} {
		before := NewRing(n)
		owners := make([]int, K)
		for i, key := range keys {
			owners[i] = mustPick(t, before, key)
		}
		after := NewRing(n)
		after.Add(n) // grow to n+1
		moved := 0
		for i, key := range keys {
			w := mustPick(t, after, key)
			if w != owners[i] {
				moved++
				if w != n {
					t.Fatalf("n=%d→%d: key %q moved from worker %d to OLD worker %d", n, n+1, key, owners[i], w)
				}
			}
		}
		limit := 2 * K / (n + 1)
		if moved > limit {
			t.Errorf("n=%d→%d: %d of %d keys moved, want ≤ %d (~K/N)", n, n+1, moved, K, limit)
		}
		if moved == 0 {
			t.Errorf("n=%d→%d: no keys moved; the new worker owns nothing", n, n+1)
		}
	}
}

// TestRingRemoveRestoresAssignments: removing a worker scatters only
// its keys to survivors, and re-adding it restores the original
// assignment exactly — vnode positions are a pure function of the
// worker index.
func TestRingRemoveRestoresAssignments(t *testing.T) {
	const K = 5000
	keys := testKeys(K)
	r := NewRing(4)
	owners := make([]int, K)
	for i, key := range keys {
		owners[i] = mustPick(t, r, key)
	}
	r.Remove(2)
	if r.Size() != 3 {
		t.Fatalf("size after remove = %d", r.Size())
	}
	for i, key := range keys {
		w := mustPick(t, r, key)
		if owners[i] != 2 && w != owners[i] {
			t.Fatalf("key %q owned by %d moved to %d when worker 2 left", key, owners[i], w)
		}
		if owners[i] == 2 && w == 2 {
			t.Fatalf("key %q still routed to removed worker 2", key)
		}
	}
	r.Add(2)
	for i, key := range keys {
		if w := mustPick(t, r, key); w != owners[i] {
			t.Fatalf("key %q owner %d not restored after re-add (got %d)", key, owners[i], w)
		}
	}
}

// TestKeyHashDispersesRealKeys pins the avalanche finalizer: raw
// FNV-1a left every odd one of 32 low-bit buckets empty on real
// structured cache keys. Over 1024 gen-shaped keys and 32 buckets
// (mean 32/bucket), every bucket must see traffic and none may take
// more than 3× the mean.
func TestKeyHashDispersesRealKeys(t *testing.T) {
	counts := make([]int, 32)
	for i := 0; i < 1024; i++ {
		key := fmt.Sprintf("v1|gen|spec=bench-%d|n=200|seed=%d|dur=40|rate=8|scale=4|win=10", i, i)
		counts[keyHash(key)&31]++
	}
	for bucket, n := range counts {
		if n == 0 {
			t.Errorf("bucket %d got no keys (low-bit clustering is back)", bucket)
		}
		if n > 96 {
			t.Errorf("bucket %d got %d of 1024 keys (mean 32)", bucket, n)
		}
	}
}

// TestKeyHashUnchanged pins the hash bit for bit: every ring position
// is a keyHash, so a different value would move keys between
// backends.
func TestKeyHashUnchanged(t *testing.T) {
	for key, want := range map[string]uint64{
		"":                 0xefd01f60ba992926,
		"worker/0/vnode/0": 0x9d0874fc7420d91c,
		"v1|gen|spec=scan|n=200|seed=1|dur=40|rate=8|scale=4|win=10": 0xe83b27984e97a05,
	} {
		if got := keyHash(key); got != want {
			t.Errorf("keyHash(%q) = %#x, want %#x", key, got, want)
		}
	}
}
