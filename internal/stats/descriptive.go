package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by descriptive statistics that are undefined on an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs using Kahan compensation, so experiment
// aggregates do not drift with sample ordering.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1) sample variance of xs. A single
// observation has zero variance by convention here, because bootstrap
// resamples of size one are legal in the harness.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (minimum, maximum float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	minimum, maximum = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minimum {
			minimum = x
		}
		if x > maximum {
			maximum = x
		}
	}
	return minimum, maximum, nil
}
