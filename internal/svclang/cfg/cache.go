package cfg

import (
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// Cache memoises lowered control-flow graphs per (service, options) pair
// so a campaign builds each case's CFG once and shares it across every
// CFG-based tool instead of re-lowering per tool. Sharing is sound
// because Build is a pure function of its inputs and the resulting Graph
// is never mutated by analyses (the dataflow solver keeps all mutable
// state in its own fact maps), so one graph can serve concurrent readers.
//
// A nil *Cache is valid and simply falls through to Build, which lets
// tools carry an optional cache without nil checks at every build site.
type Cache struct {
	m *memo.Cache[cacheKey, *Graph]
}

type cacheKey struct {
	svc  *svclang.Service
	opts Options
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{m: memo.New[cacheKey, *Graph](0, nil)}
}

// buildKey is the cache's fill: a capture-free Build of one key.
func buildKey(k cacheKey) (*Graph, error) { return Build(k.svc, k.opts), nil }

// Build returns the memoised graph for (svc, opts), lowering it on first
// use. Concurrent callers for the same key are collapsed onto a single
// Build (the losers block until the winner finishes), so the hit/miss
// counts are deterministic: misses is always the number of distinct keys
// seen, independent of scheduling.
func (c *Cache) Build(svc *svclang.Service, opts Options) *Graph {
	if c == nil {
		return Build(svc, opts)
	}
	g, hit, _ := c.m.Do(cacheKey{svc: svc, opts: opts}, buildKey)
	if hit {
		totalHits.Add(1)
	} else {
		totalMisses.Add(1)
	}
	return g
}

// Stats returns this cache's lookup counts: hits served from memory and
// misses that lowered a graph.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits, misses, _ = c.m.Stats()
	return hits, misses
}

// Process-wide totals across every Cache instance, for telemetry
// (vdserved surfaces them as counters on /metrics).
var totalHits, totalMisses atomic.Uint64

// CacheTotals returns the process-wide compile-cache hit/miss totals
// accumulated by every Cache since process start. Both values are
// monotonically non-decreasing.
func CacheTotals() (hits, misses uint64) {
	return totalHits.Load(), totalMisses.Load()
}
