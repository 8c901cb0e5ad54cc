// Package router shards the service core horizontally: a consistent
// hash ring maps canonical request keys (netsim.SpecString plus
// normalized parameters — the same identity the result cache uses)
// onto a fleet of workers — the twserve backends a cluster proxy
// fronts (see internal/cluster). The same spec always lands on the
// same worker, so worker-local caches and singleflight coalescing
// keep composing across clients; adding or removing a worker moves
// only ~K/N of the keyspace (the consistent-hashing guarantee the
// ring property tests pin), so warm cache entries largely survive
// fleet resizes.
package router

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEmptyRing reports a Pick against a ring with no live workers —
// a fleet of zero cannot own any key. A cluster proxy whose every
// backend has been removed legitimately reaches this state;
// front-ends surface it as HTTP 503 rather than panicking the
// process.
var ErrEmptyRing = errors.New("router: empty ring: no live workers")

// DefaultReplicas is the virtual-node count per worker. More vnodes
// smooth the keyspace split (the expected per-worker load imbalance
// shrinks like 1/√replicas) at the cost of a longer sorted point
// list; 128 keeps the max/mean load under ~1.3 for small fleets.
const DefaultReplicas = 128

// point is one virtual node: a position on the ring and the worker
// that owns the arc ending there.
type point struct {
	hash   uint64
	worker int
}

// Ring is a consistent hash ring over integer worker indices. The
// zero value is unusable; build with NewRing. Ring is not safe for
// concurrent mutation (Add/Remove); Pick is read-only and safe to
// call concurrently once the ring is built.
type Ring struct {
	points  []point // sorted by hash
	workers map[int]bool
}

// NewRing builds a ring over workers 0..n-1.
func NewRing(n int) *Ring {
	r := &Ring{workers: map[int]bool{}}
	for w := 0; w < n; w++ {
		r.Add(w)
	}
	return r
}

// keyHash is FNV-1a over the key with a 64-bit avalanche finalizer.
// Raw FNV-1a disperses structured keys (long shared canonical
// prefixes, a few digits of difference at the tail) badly in its low
// bits — measured on real cache keys it left every odd one of 32
// buckets empty and piled 5× the mean onto bucket 0. The murmur-style
// fmix64 mixes every input bit into every output bit. Every ring
// position is this hash, so changing it reassigns keys between
// backends.
func keyHash(key string) uint64 {
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

// vnodeHash positions one of a worker's virtual nodes with the same
// hash as keys, so vnode positions and key positions draw from one
// well-mixed space.
func vnodeHash(worker, replica int) uint64 {
	return keyHash(fmt.Sprintf("worker/%d/vnode/%d", worker, replica))
}

// Add inserts a worker's virtual nodes. Adding an existing worker is
// a no-op, so rebuilding a ring from a worker list is idempotent.
func (r *Ring) Add(worker int) {
	if r.workers[worker] {
		return
	}
	r.workers[worker] = true
	for i := 0; i < DefaultReplicas; i++ {
		r.points = append(r.points, point{hash: vnodeHash(worker, i), worker: worker})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a worker's virtual nodes; keys it owned fall to the
// next vnode clockwise, and every other key keeps its worker — the
// bounded-movement half of the consistency property.
func (r *Ring) Remove(worker int) {
	if !r.workers[worker] {
		return
	}
	delete(r.workers, worker)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size reports the live worker count.
func (r *Ring) Size() int { return len(r.workers) }

// Pick returns the worker owning key: the first virtual node at or
// clockwise after the key's hash. A single-worker ring always
// returns that worker. An empty ring — zero workers, or every worker
// removed — returns ErrEmptyRing instead of panicking, so a proxy
// drained of backends degrades to 503s rather than crashing.
func (r *Ring) Pick(key string) (int, error) {
	if len(r.points) == 0 {
		return 0, ErrEmptyRing
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest vnode
	}
	return r.points[i].worker, nil
}
