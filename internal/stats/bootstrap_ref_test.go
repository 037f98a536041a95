package stats

import (
	"errors"
	"fmt"
)

// The per-index bootstrap paths that BootstrapCodes and SignStabilityCodes
// replaced. They materialise every resample's index vector and draw it
// with one Intn call per index, from one sequential stream; the
// agreement tests hold the count kernels to their distributions.

// Bootstrap estimates a percentile confidence interval for the statistic
// computed by fn over resamples of xs. fn receives a resample (which it
// must not retain) and returns the statistic value.
func Bootstrap(rng *RNG, xs []float64, cfg BootstrapConfig, fn func([]float64) float64) (Interval, error) {
	if err := cfg.Validate(); err != nil {
		return Interval{}, err
	}
	if len(xs) == 0 {
		return Interval{}, ErrEmpty
	}
	if rng == nil {
		return Interval{}, errors.New("stats: nil RNG")
	}
	point := fn(xs)
	n := len(xs)
	estimates := make([]float64, cfg.Resamples)
	buf := make([]float64, n)
	for b := range estimates {
		for i := range buf {
			buf[i] = xs[rng.Intn(n)]
		}
		estimates[b] = fn(buf)
	}
	lo, hi := percentileBounds(estimates, cfg.Confidence)
	return Interval{Point: point, Lo: lo, Hi: hi}, nil
}

// BootstrapIndexed estimates a percentile confidence interval for a
// statistic computed from resampled *indices* of a dataset of size n. This
// supports statistics over structured records (e.g. per-test-case detection
// outcomes) without copying the records into float slices. It draws the
// same index streams as Bootstrap, so composing fn with an element lookup
// reproduces Bootstrap exactly.
func BootstrapIndexed(rng *RNG, n int, cfg BootstrapConfig, fn func(idx []int) float64) (Interval, error) {
	if err := cfg.Validate(); err != nil {
		return Interval{}, err
	}
	if n <= 0 {
		return Interval{}, ErrEmpty
	}
	if rng == nil {
		return Interval{}, errors.New("stats: nil RNG")
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	point := fn(identity)
	estimates := make([]float64, cfg.Resamples)
	// The identity buffer has served its purpose; reuse it as the
	// resample buffer instead of allocating a second index slice.
	idx := identity
	for b := range estimates {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		estimates[b] = fn(idx)
	}
	lo, hi := percentileBounds(estimates, cfg.Confidence)
	return Interval{Point: point, Lo: lo, Hi: hi}, nil
}

// SignStability returns the fraction of bootstrap resamples in which the
// statistic computed by fn has the same sign as its point estimate. It is
// the discriminative-power measure used by experiment E7: a metric
// discriminates two tools well when the sign of their metric delta is
// stable under resampling of the workload.
func SignStability(rng *RNG, n int, resamples int, fn func(idx []int) float64) (float64, error) {
	if n <= 0 {
		return 0, ErrEmpty
	}
	if resamples <= 0 {
		return 0, fmt.Errorf("stats: resamples must be positive, got %d", resamples)
	}
	if rng == nil {
		return 0, errors.New("stats: nil RNG")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	point := fn(idx) // identity pass; idx doubles as the resample buffer
	same := 0
	for b := 0; b < resamples; b++ {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		v := fn(idx)
		if (point >= 0 && v >= 0) || (point < 0 && v < 0) {
			same++
		}
	}
	return float64(same) / float64(resamples), nil
}
