package stats

import (
	"errors"
	"fmt"
)

// BootstrapConfig controls non-parametric bootstrap estimation.
type BootstrapConfig struct {
	// Resamples is the number of bootstrap resamples (B). Typical values
	// are 1000-5000; the experiments use 2000.
	Resamples int
	// Confidence is the two-sided confidence level in (0,1), e.g. 0.95.
	Confidence float64
}

// Validate reports whether the configuration is usable.
func (c BootstrapConfig) Validate() error {
	if c.Resamples <= 0 {
		return fmt.Errorf("stats: bootstrap resamples must be positive, got %d", c.Resamples)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("stats: bootstrap confidence must be in (0,1), got %g", c.Confidence)
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

// BootstrapCodes estimates percentile confidence intervals for
// statistics of a code table: codes[i] is the code (below 16) of record
// i, and each fn receives the per-code counts of one resample of the
// records. Every resample is one Resample draw from rng, taken through
// one resampler of the table, and every fn is scored on that same draw
// (common random numbers), so the intervals come back in fns order from
// one stream. The point estimate of fn is fn of the table's own counts.
// fns must neither modify nor retain cnt.
func BootstrapCodes(rng *RNG, codes []uint8, cfg BootstrapConfig, fns ...func(cnt *[16]int) float64) ([]Interval, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(codes) == 0 {
		return nil, ErrEmpty
	}
	if rng == nil {
		return nil, errors.New("stats: nil RNG")
	}
	base := countCodes(codes)
	rs := newResampler(base)
	cnt := new([16]int) // the fns make it escape: one per call, not per resample
	estimates := make([]float64, len(fns)*cfg.Resamples)
	for b := range cfg.Resamples {
		rs.draw(rng, cnt)
		for j, fn := range fns {
			estimates[j*cfg.Resamples+b] = fn(cnt)
		}
	}
	out := make([]Interval, len(fns))
	for j, fn := range fns {
		lo, hi := percentileBounds(estimates[j*cfg.Resamples:(j+1)*cfg.Resamples], cfg.Confidence)
		out[j] = Interval{Point: fn(base), Lo: lo, Hi: hi}
	}
	return out, nil
}

// countCodes returns the per-code counts of the whole table.
func countCodes(codes []uint8) *[16]int {
	cnt := new([16]int)
	for _, c := range codes {
		cnt[c&15]++
	}
	return cnt
}

// SignStabilityCodes returns, for each of the n statistics stat writes
// to out from the per-code counts, the fraction of bootstrap resamples
// of a code table in which the statistic has the same sign as its point
// estimate (its value on the table's own counts). It is the
// discriminative-power measure used by experiment E7: a metric
// discriminates two tools well when the sign of their metric delta is
// stable under resampling of the workload.
//
// Every resample is one Resample draw from rng, taken through one
// resampler of the table, and one stat call scores every statistic on
// that draw: the paired design of Sakai's bootstrap discriminative
// power, under which the fractions of different statistics differ by
// what the statistics measure, not by stream noise, and work the
// statistics share is done once per resample. stat must not modify cnt
// and must retain neither cnt nor out.
func SignStabilityCodes(rng *RNG, codes []uint8, resamples, n int, stat func(cnt *[16]int, out []float64)) ([]float64, error) {
	if len(codes) == 0 {
		return nil, ErrEmpty
	}
	if resamples <= 0 {
		return nil, fmt.Errorf("stats: resamples must be positive, got %d", resamples)
	}
	if rng == nil {
		return nil, errors.New("stats: nil RNG")
	}
	base := countCodes(codes)
	points, vals := make([]float64, n), make([]float64, n)
	stat(base, points)
	same := make([]int, n)
	rs := newResampler(base)
	cnt := new([16]int)
	for range resamples {
		rs.draw(rng, cnt)
		stat(cnt, vals)
		for j, v := range vals {
			if point := points[j]; (point >= 0 && v >= 0) || (point < 0 && v < 0) {
				same[j]++
			}
		}
	}
	fracs := make([]float64, n)
	for j, s := range same {
		fracs[j] = float64(s) / float64(resamples)
	}
	return fracs, nil
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
