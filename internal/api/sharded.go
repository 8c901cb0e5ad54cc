package api

import (
	"context"
	"runtime"
)

// Lock striping for the service's three hot shared tables — the
// result cache, the session registry, and the singleflight group.
// The single-mutex variants serialized every lookup behind one lock:
// under a concurrent mixed load the cheap warm path (a map read plus
// a recency bump) queued behind every other caller's map write. The
// sharded variants split each table into a power-of-two number of
// independently locked stripes; a key's stripe is a pure function of
// its hash, so two requests contend only when they collide on the
// same stripe. Nothing about results changes — sharding moves locks,
// not data — which is what the single-vs-sharded parity suite pins.

// shardHash is FNV-1a over the key with a 64-bit avalanche
// finalizer. Raw FNV-1a disperses structured cache keys (long shared
// canonical prefixes, a few digits of difference at the tail) badly
// in its low bits — measured on real gen-keys it left every odd
// stripe empty and piled 5× the mean onto stripe 0 — and the stripe
// index is exactly those low bits. The murmur-style fmix64 mixes
// every input bit into the low ones, restoring a near-uniform stripe
// load for pennies.
func shardHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// KeyHash is the canonical key hash the service stripes by, exported
// so the router's consistent-hash ring places keys and virtual nodes
// in the same well-mixed space the cache stripes use.
func KeyHash(key string) uint64 { return shardHash(key) }

// nextPow2 rounds n up to a power of two (minimum 1), so a stripe
// index is a mask of the hash instead of a modulo.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DefaultShards picks the stripe count from GOMAXPROCS: the next
// power of two at or above 4× the processor count, clamped to
// [4, 64]. Over-provisioning stripes relative to cores is standard
// lock-striping practice — the goal is that two runnable goroutines
// rarely hash to the same stripe, and idle stripes cost only a map
// header each. The floor keeps the sharded code path exercised even
// on a single-core runner; the ceiling bounds the per-shard capacity
// fragmentation of a small cache.
func DefaultShards() int {
	s := nextPow2(4 * runtime.GOMAXPROCS(0))
	if s < 4 {
		s = 4
	}
	if s > 64 {
		s = 64
	}
	return s
}

// shardedCache stripes the LRU result cache: each shard is an
// independent lruCache (own mutex, own recency list, own counters)
// holding its slice of the capacity. Recency and eviction are
// per-shard — a globally-LRU entry on a cold shard can outlive a
// hotter entry on a full shard — which is an accepted property of
// striped LRUs: the capacity bound and the hit path stay exact, only
// the eviction victim choice is approximate. It is safe for
// concurrent use; cached values are treated as immutable by
// convention.
type shardedCache struct {
	shards []*lruCache
	mask   uint64
}

// newShardedCache builds a cache of the given total capacity striped
// over nshards (rounded up to a power of two). Capacity ≤ 0 disables
// caching exactly like the single-mutex cache did. The total
// capacity is split evenly with the remainder spread over the first
// shards, so the aggregate Capacity is exactly the requested one;
// the stripe count is clamped down so no shard ends up with zero
// slots (a capacity-1 cache is one stripe, not one lucky stripe and
// three that silently never store).
func newShardedCache(capacity, nshards int) *shardedCache {
	n := nextPow2(max(1, nshards))
	for capacity > 0 && n > capacity {
		n >>= 1
	}
	c := &shardedCache{shards: make([]*lruCache, n), mask: uint64(n - 1)}
	for i := range c.shards {
		per := 0
		if capacity > 0 {
			per = capacity / n
			if i < capacity%n {
				per++
			}
		}
		c.shards[i] = newLRUCache(per)
	}
	return c
}

func (c *shardedCache) shard(key string) *lruCache {
	return c.shards[shardHash(key)&c.mask]
}

// Get returns the cached value for key, refreshing its recency
// within the key's shard.
func (c *shardedCache) Get(key string) (any, bool) { return c.shard(key).get(key) }

// Put inserts or refreshes key in its shard, evicting that shard's
// least recently used entries beyond its capacity slice.
func (c *shardedCache) Put(key string, val any) { c.shard(key).put(key, val) }

// Stats aggregates the shard counters and carries the per-shard
// breakdown for observability (/v1/stats).
func (c *shardedCache) Stats() CacheStats {
	var agg CacheStats
	agg.Shards = make([]CacheStats, len(c.shards))
	for i, sh := range c.shards {
		st := sh.stats()
		agg.Shards[i] = st
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Len += st.Len
		agg.Capacity += st.Capacity
	}
	return agg
}

// shardedFlights stripes the singleflight group the same way. A
// canonical key always hashes to the same stripe, so the coalescing
// invariant — at most one in-flight computation per key — holds
// per-shard exactly as it held globally; striping only splits the
// bookkeeping lock that every cold request briefly takes.
type shardedFlights struct {
	shards []flightGroup
	mask   uint64
}

func newShardedFlights(nshards int) *shardedFlights {
	n := nextPow2(max(1, nshards))
	return &shardedFlights{shards: make([]flightGroup, n), mask: uint64(n - 1)}
}

func (g *shardedFlights) do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	return g.shards[shardHash(key)&g.mask].do(ctx, key, fn)
}
