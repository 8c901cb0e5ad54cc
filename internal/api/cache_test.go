package api

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestLRUCacheHitMissCounters(t *testing.T) {
	c := newLRUCache(4)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put("a", 1)
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Fatalf("get after put = %v, %v", v, ok)
	}
	c.get("b") // miss
	st := c.stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 || st.Len != 1 || st.Capacity != 4 {
		t.Errorf("stats = %+v, want hits=1 misses=2 evictions=0 len=1 cap=4", st)
	}
}

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	// Touch "a" so "b" is the LRU entry when "c" arrives.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("new entry c missing")
	}
	if st := c.stats(); st.Evictions != 1 || st.Len != 2 {
		t.Errorf("stats = %+v, want evictions=1 len=2", st)
	}
}

func TestLRUCachePutRefreshesExisting(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	c.put("a", 10) // refresh, not a new entry
	c.put("c", 3)  // should evict b, the LRU
	if v, ok := c.get("a"); !ok || v.(int) != 10 {
		t.Errorf("refreshed entry = %v, %v; want 10", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived; refresh of a did not update recency")
	}
}

func TestLRUCacheZeroCapacityDisables(t *testing.T) {
	c := newLRUCache(0)
	c.put("a", 1)
	if _, ok := c.get("a"); ok {
		t.Error("zero-capacity cache stored an entry")
	}
	if st := c.stats(); st.Len != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want len=0 misses=1", st)
	}
}

// TestCacheConcurrentMixed hammers one cache from many
// goroutines under -race: correctness is "no race, no lost own
// writes within a goroutine's private key space".
func TestCacheConcurrentMixed(t *testing.T) {
	c := newLRUCache(1024)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%8)
				c.put(key, i)
				if _, ok := c.get(key); !ok {
					t.Errorf("goroutine %d lost its own fresh write %s", g, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.stats(); st.Len == 0 || st.Len > 1024 {
		t.Errorf("post-churn len = %d, want within (0, 1024]", st.Len)
	}
}

// TestDefaultCacheHoldsItsCapacity: a default service keeps
// DefaultCacheCapacity distinct results. The cache is one LRU, so no
// part of it fills before the whole does.
func TestDefaultCacheHoldsItsCapacity(t *testing.T) {
	svc := New()
	ctx := context.Background()
	req := func(seed int) GenerateRequest {
		return GenerateRequest{Spec: "scan", Seed: int64(seed), Hosts: 10, Duration: 2, Workers: 1}
	}
	for seed := 0; seed < DefaultCacheCapacity; seed++ {
		if _, err := svc.Generate(ctx, req(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := 0; seed < DefaultCacheCapacity; seed++ {
		res, err := svc.Generate(ctx, req(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Errorf("seed %d missed on the second pass", seed)
		}
	}
	if st := svc.CacheStats(); st.Evictions != 0 || st.Len != DefaultCacheCapacity {
		t.Errorf("stats = %+v, want 0 evictions and len %d", st, DefaultCacheCapacity)
	}
}
