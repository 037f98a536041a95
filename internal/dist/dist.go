// Package dist shards benchmark campaigns across worker processes while
// preserving the repo's byte-identity guarantee: a campaign distributed
// over any number of workers produces exactly the Campaign a local run
// would, execution ledgers included.
//
// The design leans on three existing invariants rather than inventing
// new machinery:
//
//   - Corpora are pure functions of workload.Config, so no case crosses
//     the wire — a shard is just a case range [lo, hi) plus the config.
//     Workers (to execute) and the client (to merge) generate the corpus
//     locally through a small content-addressed cache; the coordinator
//     never does, since a config of n services always yields n cases.
//   - The harness pre-splits per-(tool, case) RNG streams over the FULL
//     corpus in serial order (harness.RunShardCtx), so a shard executed
//     on a remote worker draws exactly what a local run would.
//   - The client's harness.MergeShards is the only merge. It folds cells
//     in (tool, case) order, so which process produced a cell is
//     invisible in the output, and applies the degraded policy exactly
//     as serial execution would.
//
// The protocol is stdlib HTTP+JSON: workers register with the
// coordinator, heartbeat, pull content-addressed shards (a pull parks on
// the coordinator until a shard is pending), execute them under the
// fault-tolerant engine and report the raw CellResult records back. The
// coordinator holds scheduling state and one stitched [tool][case] grid
// per campaign; it checks each report's geometry and applies the abort
// rule (harness.AbortError), so an abort-policy campaign reports failed
// with the local error text. A worker that stops heartbeating has its
// shards deterministically reassigned, at most three times per shard
// before the campaign fails; a shard reported under a stale lease is
// politely discarded — by determinism the surviving execution is
// byte-identical anyway.
//
// This package is part of the deterministic set checked by
// internal/vdlint: non-test code never reads the wall clock directly
// (latency observation goes through an injected now function, waits and
// heartbeat expiry through context deadlines) and never iterates maps
// into ordered output.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/memo"
	"github.com/dsn2015/vdbench/internal/workload"
)

// DefaultShardCases is the shard granularity used when a spec leaves
// ShardCases zero: small enough to spread a quick campaign over a few
// workers, large enough to amortise per-shard scheduling and reporting.
const DefaultShardCases = 32

// Sentinel errors of the distributed layer.
var (
	// ErrClosed is returned for operations on a closed coordinator.
	ErrClosed = errors.New("dist: coordinator closed")
	// ErrDraining is returned for a pull that finds nothing pending on a
	// draining coordinator, so the worker backs off instead of parking.
	ErrDraining = errors.New("dist: coordinator draining")
	// ErrUnknownWorker is returned for pulls and heartbeats from a worker
	// the coordinator does not know (never registered, or expired). The
	// worker's recovery is to register again.
	ErrUnknownWorker = errors.New("dist: unknown worker")
	// ErrUnknownCampaign is returned for lookups of campaign IDs the
	// coordinator does not track.
	ErrUnknownCampaign = errors.New("dist: unknown campaign")
	// ErrStaleLease is returned for a shard report whose (worker, lease)
	// pair lost the assignment — the worker expired and the shard moved
	// on. The result is discarded; by determinism the re-execution
	// produces byte-identical cells.
	ErrStaleLease = errors.New("dist: stale shard lease")
	// ErrNotDone is returned when a campaign's cells are requested before
	// every shard has reported.
	ErrNotDone = errors.New("dist: campaign not done")
)

// CampaignSpec is the wire description of one distributed campaign. The
// corpus itself never crosses the wire: Workload is the generation
// config, from which workers (for execution) and the client (for the
// merge) generate the corpus deterministically. The coordinator reads
// only its service count, which is the corpus's case count.
type CampaignSpec struct {
	// Workload is the corpus generation config.
	Workload workload.Config `json:"workload"`
	// Suite names the tool suite, resolved through the process-local
	// registry (RegisterSuite). "standard" is always available.
	Suite string `json:"suite"`
	// Options is the harness execution policy. Seed, Retry.MaxRetries
	// and Degraded are output-affecting (the latter two only under
	// injected faults) and enter shard keys; Workers, PerToolTimeout and
	// Retry.Backoff are operational knobs the byte-identity guarantee
	// makes output-invariant, so they do not.
	Options harness.Options `json:"options"`
	// ShardCases is the number of corpus cases per shard; zero selects
	// DefaultShardCases.
	ShardCases int `json:"shard_cases"`
}

// Validate reports whether the spec is usable: a valid workload config,
// a registered suite name, valid execution options and a sane shard
// size. It builds neither corpus nor suite.
func (s CampaignSpec) Validate() error {
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if _, err := lookupSuite(s.Suite); err != nil {
		return err
	}
	if err := s.Options.Validate(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if s.ShardCases < 0 {
		return fmt.Errorf("dist: negative shard size %d", s.ShardCases)
	}
	return nil
}

// shardCases resolves the shard granularity.
func (s CampaignSpec) shardCases() int {
	if s.ShardCases <= 0 {
		return DefaultShardCases
	}
	return s.ShardCases
}

// ShardKey is the content address of one shard: a SHA-256 over the
// spec's output-affecting fields and the case range, in the canonical
// encoding style of experiments.CacheKey (%.17g floats, fixed field
// order). Operational knobs (Workers, PerToolTimeout, Retry.Backoff)
// are excluded for the same reason they are excluded from experiment
// cache keys: the byte-identity guarantee makes them output-invariant.
// Retry.MaxRetries and Degraded stay in — under injected faults a retry
// budget decides whether a cell succeeds, and the policy decides what
// the merge does with it.
func (s CampaignSpec) ShardKey(lo, hi int) string {
	h := sha256.New()
	fmt.Fprintf(h, "vdbench-dist-shard-v1\n")
	fmt.Fprintf(h, "workload.services=%d\nworkload.prevalence=%.17g\nworkload.seed=%d\n",
		s.Workload.Services, s.Workload.TargetPrevalence, s.Workload.Seed)
	fmt.Fprintf(h, "workload.kinds=%v\nworkload.mix=%v\n", s.Workload.Kinds, s.Workload.Mix)
	fmt.Fprintf(h, "suite=%s\n", s.Suite)
	fmt.Fprintf(h, "exec.seed=%d\nexec.retries=%d\nexec.degraded=%s\n",
		s.Options.Seed, s.Options.Retry.MaxRetries, s.Options.Degraded)
	fmt.Fprintf(h, "range=[%d,%d)\n", lo, hi)
	return hex.EncodeToString(h.Sum(nil))
}

// shardRange is one shard's half-open case range.
type shardRange struct{ lo, hi int }

// shardRanges splits the corpus's cases into consecutive ranges of the
// spec's shard size. workload.Generate yields exactly Workload.Services
// cases, so the split needs no corpus and every party derives identical
// shard sets.
func (s CampaignSpec) shardRanges() []shardRange {
	n, size := s.Workload.Services, s.shardCases()
	var out []shardRange
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, shardRange{lo: lo, hi: hi})
	}
	return out
}

// corpusCacheSize bounds the process-local corpus cache. Workers and
// merging clients in one process share it, so one campaign's corpus is
// generated once per process no matter how many shards touch it —
// concurrent misses on one config collapse onto one generation.
const corpusCacheSize = 4

var corpusCache = memo.New[string, *workload.Corpus](corpusCacheSize, nil)

// corpusKey is the content address of a generation config. Unlike shard
// keys it includes every field — the cached value is the corpus itself,
// and Corpus.Config must echo the requested config exactly for merged
// campaigns to compare deep-equal with local runs.
func corpusKey(cfg workload.Config) string {
	return fmt.Sprintf("services=%d prevalence=%.17g seed=%d kinds=%v mix=%v",
		cfg.Services, cfg.TargetPrevalence, cfg.Seed, cfg.Kinds, cfg.Mix)
}

// corpusFor returns the corpus for cfg, generating it on first use and
// serving repeats from the bounded cache. Corpora are immutable after
// generation (the harness only reads them), so sharing one instance
// across goroutines is safe.
func corpusFor(cfg workload.Config) (*workload.Corpus, error) {
	corpus, _, err := corpusCache.Do(corpusKey(cfg), func(string) (*workload.Corpus, error) {
		corpus, err := workload.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("dist: corpus: %w", err)
		}
		return corpus, nil
	})
	return corpus, err
}
