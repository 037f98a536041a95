package compile

import (
	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// Content-addressed oracle cache: ground truth is a pure function of a
// service's body (the name never appears in a GroundTruth), so identical
// services — template instantiations, the per-worker corpus
// regenerations of internal/dist, repeated campaign setups in one
// process — need only one influence-guided search. The cache is
// process-wide, like the cfg compile cache and the oracle telemetry it
// composes with, and keyed by the service's digest
// (svclang.Service.Digest), which leaves the name out and allocates
// nothing. Only the production derivation is cached: a reference engine
// (NewReferenceEngine) never reads or writes it.
//
// The cache is a bounded memo: the first caller derives while the cache
// stays unlocked for other keys, least-recently-used entries are evicted
// past the capacity, and an in-flight entry that is evicted still
// completes for its waiters. Results are deep-copied on every return
// (producer included) so no caller can corrupt a cached witness.

// oracleCacheCap bounds the cache to a few thousand services — far
// above any one corpus (hundreds), far below memory relevance.
const oracleCacheCap = 2048

var oracleCache = memo.New[svclang.Digest, []svclang.GroundTruth](oracleCacheCap, nil)

// oracleLookup memoises the engine's derivation for svc under d, svc's
// digest, returning a deep copy of the cached ground truth. A
// derivation fails only on an invalid service, and its error names the
// service it was raised on, so a renamed copy that finds a memoised
// error derives its own.
func (e *Engine) oracleLookup(svc *svclang.Service, d svclang.Digest) ([]svclang.GroundTruth, error) {
	truths, hit, err := oracleCache.Do(d,
		func(svclang.Digest) ([]svclang.GroundTruth, error) { return e.derive(svc, d) })
	if err != nil && hit {
		return e.derive(svc, d)
	}
	if err != nil {
		return nil, err
	}
	return svclang.CloneGroundTruths(truths), nil
}

// OracleCacheTotals returns the process-wide oracle-cache counters:
// hits served a memoised ground-truth derivation, misses ran one (or
// are running one — an in-flight entry counts as missed by its
// producer and hit by its waiters). Both values are monotone; every
// daemon role exports them through harness.RegisterProcessCounters.
func OracleCacheTotals() (hits, misses uint64) {
	hits, misses, _ = oracleCache.Stats()
	return hits, misses
}
