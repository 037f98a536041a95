package stats

import (
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/workpool"
)

// bootstrapBlock is the number of resamples drawn from one derived RNG
// stream. The block — not the worker — is the unit of determinism: block
// k's stream is the k-th child split off the caller's generator, and
// resamples within a block are drawn sequentially from it. Any worker may
// execute any block in any order without changing a single draw, so the
// interval bounds are byte-identical for every Workers value. The size
// only trades scheduling granularity against split overhead.
const bootstrapBlock = 64

// BootstrapConfig controls non-parametric bootstrap estimation.
type BootstrapConfig struct {
	// Resamples is the number of bootstrap resamples (B). Typical values
	// are 1000-5000; the experiments use 2000.
	Resamples int
	// Confidence is the two-sided confidence level in (0,1), e.g. 0.95.
	Confidence float64
	// Workers bounds the resampling concurrency, read like every other
	// layer's: 0 means GOMAXPROCS, 1 runs serially on the calling
	// goroutine, n > 1 uses up to n goroutines. The interval is
	// byte-identical for every value (see bootstrapBlock). Unless
	// Workers is 1, the statistic fn must be safe for concurrent calls
	// on distinct scratch buffers.
	Workers int
}

// Validate reports whether the configuration is usable.
func (c BootstrapConfig) Validate() error {
	if c.Resamples <= 0 {
		return fmt.Errorf("stats: bootstrap resamples must be positive, got %d", c.Resamples)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("stats: bootstrap confidence must be in (0,1), got %g", c.Confidence)
	}
	if c.Workers < 0 {
		return fmt.Errorf("stats: bootstrap workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
}

// Width returns the interval width.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies within the interval (inclusive).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// BootstrapCodes estimates a percentile confidence interval for a
// statistic of a code table: codes[i] is the code (below 16) of record i,
// and fn receives the per-code counts of one resample of the records. The
// point estimate is fn of the table's own counts. A resample is one Tally
// of the block's stream, which draws exactly the indices an Intn(len(codes))
// loop would, so the interval is the one an index-materialising bootstrap
// over the same records computes. fn must not retain cnt.
func BootstrapCodes(rng *RNG, codes []uint8, cfg BootstrapConfig, fn func(cnt *[16]int) float64) (Interval, error) {
	if err := cfg.Validate(); err != nil {
		return Interval{}, err
	}
	if len(codes) == 0 {
		return Interval{}, ErrEmpty
	}
	if rng == nil {
		return Interval{}, errors.New("stats: nil RNG")
	}
	point := fn(countCodes(codes))
	estimates := make([]float64, cfg.Resamples)
	streams := splitBlockStreams(rng, cfg.Resamples)
	_ = workpool.New(cfg.Workers).ForEach(len(streams), func(_, k int) error {
		blk := &streams[k]
		cnt := new([16]int) // fn makes it escape: one per block, not per resample
		start := k * bootstrapBlock
		for b := start; b < min(start+bootstrapBlock, len(estimates)); b++ {
			*cnt = [16]int{}
			blk.Tally(codes, cnt)
			estimates[b] = fn(cnt)
		}
		return nil
	})
	lo, hi := percentileBounds(estimates, cfg.Confidence)
	return Interval{Point: point, Lo: lo, Hi: hi}, nil
}

// countCodes returns the per-code counts of the whole table.
func countCodes(codes []uint8) *[16]int {
	cnt := new([16]int)
	for _, c := range codes {
		cnt[c&15]++
	}
	return cnt
}

// splitBlockStreams derives one child stream per bootstrap block, in block
// order, as values in a single allocation. A child's draws never advance
// its parent, so these are the streams a serial loop splitting each
// block's child just before drawing it would see.
func splitBlockStreams(rng *RNG, resamples int) []RNG {
	streams := make([]RNG, (resamples+bootstrapBlock-1)/bootstrapBlock)
	for k := range streams {
		rng.splitInto(&streams[k])
	}
	return streams
}

// SignStabilityCodes returns the fraction of bootstrap resamples of a
// code table in which the statistic fn of the per-code counts has the
// same sign as its point estimate (fn of the table's own counts). It is
// the discriminative-power measure used by experiment E7: a metric
// discriminates two tools well when the sign of their metric delta is
// stable under resampling of the workload.
//
// SignStabilityCodes draws one sequential stream (no per-block
// splitting), one Tally per resample: its callers parallelise across
// (pair, metric) cells with one pre-split RNG per call, which keeps E7's
// historical draw sequence — and therefore its published numbers —
// unchanged. fn must not retain cnt.
func SignStabilityCodes(rng *RNG, codes []uint8, resamples int, fn func(cnt *[16]int) float64) (float64, error) {
	if len(codes) == 0 {
		return 0, ErrEmpty
	}
	if resamples <= 0 {
		return 0, fmt.Errorf("stats: resamples must be positive, got %d", resamples)
	}
	if rng == nil {
		return 0, errors.New("stats: nil RNG")
	}
	cnt := countCodes(codes)
	point := fn(cnt) // identity pass; cnt doubles as the resample buffer
	same := 0
	for range resamples {
		*cnt = [16]int{}
		rng.Tally(codes, cnt)
		v := fn(cnt)
		if (point >= 0 && v >= 0) || (point < 0 && v < 0) {
			same++
		}
	}
	return float64(same) / float64(resamples), nil
}

// percentileBounds returns the symmetric percentile interval bounds for the
// given two-sided confidence level. estimates is consumed (partially
// reordered in place by quickselect).
func percentileBounds(estimates []float64, confidence float64) (lo, hi float64) {
	alpha := (1 - confidence) / 2
	lo = selectQuantile(estimates, alpha)
	hi = selectQuantile(estimates, 1-alpha)
	return lo, hi
}
