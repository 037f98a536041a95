package compile

import (
	"crypto/sha256"
	"strings"

	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/svclang"
)

// Content-addressed oracle cache: ground truth is a pure function of a
// service's body (the name never appears in a GroundTruth), so identical
// services — template instantiations, the per-worker corpus
// regenerations of internal/dist, repeated campaign setups in one
// process — need only one influence-guided search. The cache is
// process-wide, like the cfg compile cache and the oracle telemetry it
// composes with, and keyed by the SHA-256 of the canonical printed
// source with the name line stripped. Only the production derivation
// is cached: a reference engine (NewReferenceEngine) never reads or
// writes it.
//
// The cache is a bounded memo: the first caller derives while the cache
// stays unlocked for other keys, least-recently-used entries are evicted
// past the capacity, and an in-flight entry that is evicted still
// completes for its waiters. Results are deep-copied on every return
// (producer included) so no caller can corrupt a cached witness.

// oracleCacheCap bounds the cache to a few thousand services — far
// above any one corpus (hundreds), far below memory relevance.
const oracleCacheCap = 2048

type oracleKey = [sha256.Size]byte

var oracleCache = memo.New[oracleKey, []svclang.GroundTruth](oracleCacheCap, nil)

// oracleCacheKey derives the content address of svc. The printed form
// is canonical (Print ∘ Parse is the identity on it), and its first
// line carries exactly the service name, which ground truth is
// independent of — stripping it lets renamed instantiations of one
// template share an entry.
func oracleCacheKey(svc *svclang.Service) oracleKey {
	src := svclang.Print(svc)
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		src = src[i+1:]
	}
	return sha256.Sum256([]byte(src))
}

// oracleLookup memoises the pruned search over probe under the
// service's content address, returning a deep copy of the cached ground
// truth.
func oracleLookup(svc *svclang.Service, probe svclang.ProbeFunc) ([]svclang.GroundTruth, error) {
	truths, _, err := oracleCache.Do(oracleCacheKey(svc),
		func(oracleKey) ([]svclang.GroundTruth, error) { return svclang.AnalyzeProbing(svc, probe) })
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
