// Package memo is the benchmark's one cache primitive: a concurrency-safe
// memo of a pure fill function, with per-key singleflight, optional
// least-recently-used eviction under a cost budget, and hit/miss/eviction
// counters. Every cached value in the system is a pure function of its
// key, so a hit is indistinguishable from recomputing it.
package memo

import (
	"sync"
	"sync/atomic"
)

// Cache memoises values of type V under keys of type K. The zero Cache
// is not usable; build one with New.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(V) int64

	mu    sync.Mutex
	m     map[K]*entry[K, V]
	lru   node[K, V] // sentinel of the recency ring: next = most recent
	total int64      // summed cost of the tracked entries

	hits, misses, evictions uint64
}

// entry is one memoised value. It stays lean because unbounded caches
// hold thousands of them per campaign: an entry's key and cost live in
// its recency node, which only bounded caches allocate.
type entry[K comparable, V any] struct {
	once sync.Once
	done atomic.Bool // set once val and err are final
	val  V
	err  error
	node *node[K, V] // nil when untracked
}

// node is an entry's place in the recency ring of a bounded cache.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	cost       int64
}

// New returns an empty cache. A budget of 0 means unbounded: recency is
// not tracked and nothing is ever evicted. A positive budget evicts
// least-recently-used entries until the summed cost of the stored
// entries fits; an entry costlier than the whole budget is not stored.
// A negative budget stores nothing. A nil cost prices every entry at 1.
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, cost: cost, m: map[K]*entry[K, V]{}}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// Do returns the value memoised under key, calling fill(key) to compute
// it on first use. Concurrent callers for one key collapse onto a single
// fill: the caller that inserts the entry runs it and the others wait.
// The result of fill, error included, is memoised, so fill must be a
// pure function of its key. hit reports whether the entry already
// existed; misses therefore always equal the number of insertions,
// independent of scheduling. An entry evicted while its fill is still
// running completes for every caller already waiting on it. A fill that
// panics memoises nothing: the panic reaches the caller that ran it, and
// every caller waiting on that entry fills again.
func (c *Cache[K, V]) Do(key K, fill func(K) (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, hit := c.m[key]
	if hit {
		c.hits++
		if e.node != nil {
			c.touch(e.node)
		}
	} else {
		c.misses++
		e = &entry[K, V]{}
		if c.budget >= 0 {
			c.m[key] = e
			if c.budget > 0 && c.cost == nil {
				c.track(key, e, 1)
			}
		}
	}
	c.mu.Unlock()

	if e.done.Load() {
		return e.val, hit, e.err
	}
	e.once.Do(func() {
		defer func() {
			if !e.done.Load() { // fill panicked
				c.forget(key, e)
			}
		}()
		e.val, e.err = fill(key)
		e.done.Store(true)
	})
	if !e.done.Load() {
		return c.Do(key, fill)
	}
	if !hit && c.budget > 0 && c.cost != nil {
		// A priced entry is charged once its value exists.
		cost := c.cost(e.val)
		c.mu.Lock()
		if c.m[key] == e {
			c.track(key, e, cost)
		}
		c.mu.Unlock()
	}
	return e.val, hit, e.err
}

// Get returns the value stored under key and refreshes its recency. It
// never fills and never waits: an entry whose fill is still running, or
// whose fill failed, reports false. Get does not touch the hit and miss
// counters, which count Do's lookups.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || !e.done.Load() || e.err != nil {
		return v, false
	}
	if e.node != nil {
		c.touch(e.node)
	}
	return e.val, true
}

// Put stores v under key as if a fill had returned it, and returns the
// number of entries it evicted. A key already present keeps its value,
// since a key determines its value, and only has its recency refreshed.
func (c *Cache[K, V]) Put(key K, v V) (evicted int) {
	if c.budget < 0 {
		return 0
	}
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if e.node != nil {
			c.touch(e.node)
		}
		return 0
	}
	before := c.evictions
	e := &entry[K, V]{val: v}
	e.done.Store(true) // Do returns done entries without touching once
	c.m[key] = e
	if c.budget > 0 {
		c.track(key, e, cost)
	}
	return int(c.evictions - before)
}

// Stats returns Do's lookup counters — hits answered by an existing
// entry, misses that inserted one — and the number of entries evicted
// by the budget. All three are monotone.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Len returns the number of stored entries and their summed cost. An
// unbounded cache prices nothing, so its cost is always 0.
func (c *Cache[K, V]) Len() (entries int, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.total
}

// track links e at the front of the recency ring with the given cost and
// evicts down to the budget. An entry costlier than the whole budget is
// dropped instead (without counting as an eviction). Callers hold c.mu.
func (c *Cache[K, V]) track(key K, e *entry[K, V], cost int64) {
	if cost > c.budget {
		delete(c.m, key)
		return
	}
	n := &node[K, V]{key: key, cost: cost}
	e.node = n
	c.link(n)
	c.total += cost
	c.evict()
}

// forget removes e from the cache if key still maps to it.
func (c *Cache[K, V]) forget(key K, e *entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] != e {
		return
	}
	delete(c.m, key)
	if e.node != nil {
		c.unlink(e.node)
		c.total -= e.node.cost
	}
}

// evict removes least-recently-used entries until the tracked cost fits
// the budget. Callers hold c.mu.
func (c *Cache[K, V]) evict() {
	for c.total > c.budget { // the ring is non-empty while total > 0
		n := c.lru.prev
		c.unlink(n)
		delete(c.m, n.key)
		c.total -= n.cost
		c.evictions++
	}
}

// touch moves n to the front of the recency ring; link and unlink are
// its halves. Callers hold c.mu.
func (c *Cache[K, V]) touch(n *node[K, V]) { c.unlink(n); c.link(n) }

func (c *Cache[K, V]) link(n *node[K, V]) {
	n.prev, n.next = &c.lru, c.lru.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) { n.prev.next, n.next.prev = n.next, n.prev }
