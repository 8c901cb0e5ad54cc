package api

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of the result cache's
// counters, served inside /v1/stats and pinned by the cache behavior
// tests.
type CacheStats struct {
	// Hits and Misses count lookups since the service was built.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to stay within Capacity.
	Evictions uint64 `json:"evictions"`
	// Len and Capacity describe the current occupancy.
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
}

// lruCache is the bounded result cache: a mutex-guarded map plus
// recency list. Values are stored as-is and treated as immutable by
// convention — Generate hands out shallow copies of the result
// header, never mutating cached innards.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheEntry is one key/value pair threaded on the recency list.
type cacheEntry struct {
	key string
	val any
}

// newLRUCache builds a cache holding at most capacity entries;
// capacity ≤ 0 disables caching (every get misses, put is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached value for key, refreshing its recency.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts or refreshes key, evicting the least recently used
// entries beyond capacity.
func (c *lruCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for len(c.items) > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.items),
		Capacity:  c.capacity,
	}
}
