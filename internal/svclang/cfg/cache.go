package cfg

import (
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// Cache memoises lowered control-flow graphs per (service body,
// options) pair so a campaign builds each body's CFG once and shares it
// across every CFG-based tool and every renamed copy of the body instead
// of re-lowering per tool and per case. Sharing is sound because Build
// is a pure function of its inputs (the name aside, which only tags
// Graph.Service) and the resulting Graph is never mutated by analyses
// (the dataflow solver keeps all mutable state in its own fact maps), so
// one graph can serve concurrent readers.
//
// A nil *Cache is valid and simply falls through to Build, which lets
// tools carry an optional cache without nil checks at every build site.
type Cache struct {
	m *memo.Cache[cacheKey, *Graph]
}

type cacheKey struct {
	body svclang.Digest
	opts Options
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{m: memo.New[cacheKey, *Graph](0, nil)}
}

// Build returns the memoised graph for (svc's body, opts), lowering it
// on first use; d must be svc.Digest(), which a campaign reads off the
// case (workload.Case.Digest). The graph's Service is the first service
// of that body the cache saw. Concurrent callers for the same key are
// collapsed onto a single Build (the losers block until the winner
// finishes), so the hit/miss counts are deterministic: misses is always
// the number of distinct keys seen, independent of scheduling.
func (c *Cache) Build(svc *svclang.Service, d svclang.Digest, opts Options) *Graph {
	if c == nil {
		return Build(svc, opts)
	}
	g, hit, _ := c.m.Do(cacheKey{body: d, opts: opts},
		func(cacheKey) (*Graph, error) { return Build(svc, opts), nil })
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
