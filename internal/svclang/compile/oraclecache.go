package compile

import (
	"container/list"
	"crypto/sha256"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/svclang"
)

// Content-addressed oracle cache: ground truth is a pure function of a
// service's body (the name never appears in a GroundTruth) and of the
// derivation mode, so identical services — template instantiations, the
// per-worker corpus regenerations of internal/dist, repeated campaign
// setups in one process — need only one influence-guided search. The
// cache is process-wide, like the cfg compile cache and the oracle
// telemetry it composes with: keyed by the SHA-256 of the canonical
// printed source with the name line stripped, plus the mode bits
// (interpreter vs VM, pruned vs exhaustive). The mode bits are part of
// the key even though every mode provably derives the same labels: the
// reference engine (NewReferenceEngine) exists to re-derive ground truth
// independently, and collapsing the bits would let a cached pruned
// result answer a reference request, masking exactly the divergence the
// differential tests are there to expose.
//
// Entries singleflight like progEntry: the first caller derives under
// the entry's once while the cache stays unlocked for other keys.
// Recency is tracked MRU with a bounded capacity; an in-flight entry
// may be evicted, in which case its waiters still complete against the
// detached entry. Results are deep-copied on every return (producer
// included) so no caller can corrupt a cached witness.

// oracleCacheCap bounds the cache to a few thousand services — far
// above any one corpus (hundreds), far below memory relevance.
const oracleCacheCap = 2048

type oracleKey struct {
	sum  [sha256.Size]byte
	mode uint8
}

type oracleEntry struct {
	once   sync.Once
	truths []svclang.GroundTruth
	err    error
}

var (
	oracleMu    sync.Mutex
	oracleCache = map[oracleKey]*list.Element{}
	oracleMRU   list.List // of oracleElem, front = most recent

	oracleHits   atomic.Uint64
	oracleMisses atomic.Uint64
)

type oracleElem struct {
	key oracleKey
	ent *oracleEntry
}

// oracleCacheKey derives the content address of svc under the given
// mode bits. The printed form is canonical (Print ∘ Parse is the
// identity on it), and its first line carries exactly the service name,
// which ground truth is independent of — stripping it lets renamed
// instantiations of one template share an entry.
func oracleCacheKey(svc *svclang.Service, interpret, exhaustive bool) oracleKey {
	src := svclang.Print(svc)
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		src = src[i+1:]
	}
	var mode uint8
	if interpret {
		mode |= 1
	}
	if exhaustive {
		mode |= 2
	}
	return oracleKey{sum: sha256.Sum256([]byte(src)), mode: mode}
}

// oracleLookup memoises derive under the service's content address,
// returning a deep copy of the cached ground truth.
func oracleLookup(svc *svclang.Service, interpret, exhaustive bool, derive func() ([]svclang.GroundTruth, error)) ([]svclang.GroundTruth, error) {
	key := oracleCacheKey(svc, interpret, exhaustive)

	oracleMu.Lock()
	el, ok := oracleCache[key]
	if ok {
		oracleMRU.MoveToFront(el)
	} else {
		el = oracleMRU.PushFront(oracleElem{key: key, ent: &oracleEntry{}})
		oracleCache[key] = el
		if oracleMRU.Len() > oracleCacheCap {
			back := oracleMRU.Back()
			oracleMRU.Remove(back)
			delete(oracleCache, back.Value.(oracleElem).key)
		}
	}
	oracleMu.Unlock()

	if ok {
		oracleHits.Add(1)
	} else {
		oracleMisses.Add(1)
	}

	ent := el.Value.(oracleElem).ent
	ent.once.Do(func() {
		ent.truths, ent.err = derive()
	})
	if ent.err != nil {
		return nil, ent.err
	}
	return svclang.CloneGroundTruths(ent.truths), nil
}

// OracleCacheTotals returns the process-wide oracle-cache counters:
// hits served a memoised ground-truth derivation, misses ran one (or
// are running one — an in-flight entry counts as missed by its
// producer and hit by its waiters). Both values are monotone;
// cmd/vdserved and the dist daemons fold their deltas onto /metrics.
func OracleCacheTotals() (hits, misses uint64) {
	return oracleHits.Load(), oracleMisses.Load()
}
