package metrics

import (
	"errors"
	"fmt"
	"math"
)

// Orientation states which direction of a metric is better.
type Orientation int

// Orientation values. HigherIsBetter is the common case (precision,
// recall); LowerIsBetter covers error-style metrics (false positive rate).
const (
	HigherIsBetter Orientation = iota + 1
	LowerIsBetter
)

// String implements fmt.Stringer.
func (o Orientation) String() string {
	switch o {
	case HigherIsBetter:
		return "higher-is-better"
	case LowerIsBetter:
		return "lower-is-better"
	default:
		return fmt.Sprintf("Orientation(%d)", int(o))
	}
}

// UndefinedError reports that a metric is undefined on a particular
// confusion matrix (a denominator vanished). The paper treats definedness
// on degenerate matrices as one of the characteristics of a good benchmark
// metric, so the library surfaces it as a typed error instead of returning
// NaN.
type UndefinedError struct {
	Metric string
	On     Confusion
	Reason string
}

// Error implements the error interface.
func (e *UndefinedError) Error() string {
	return fmt.Sprintf("metrics: %s undefined on {%s}: %s", e.Metric, e.On, e.Reason)
}

// Metric is one candidate benchmark metric. Metrics are immutable once
// built; the catalogue in catalog.go constructs all of them.
type Metric struct {
	// ID is the short stable identifier used in tables ("precision").
	ID string
	// Name is the long human-readable name ("Precision (positive predictive value)").
	Name string
	// Aliases lists other names the literature uses for the same metric.
	Aliases []string
	// Formula is the human-readable defining formula.
	Formula string
	// Lo and Hi bound the theoretical range of the metric. Unbounded
	// metrics use ±Inf.
	Lo, Hi float64
	// Orientation states whether higher or lower values are better.
	Orientation Orientation
	// ChanceCorrected is true when the metric's baseline for a random
	// classifier is a fixed constant independent of prevalence (e.g. 0 for
	// MCC, informedness, kappa).
	ChanceCorrected bool
	// Reference cites where the metric comes from.
	Reference string

	compute func(Confusion) (float64, error)
}

// Value computes the metric on c. It returns an *UndefinedError when the
// metric is undefined on c, and an ordinary error for invalid matrices.
func (m *Metric) Value(c Confusion) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return m.compute(c)
}

// ValueOr computes the metric on c and substitutes fallback when the metric
// is undefined. Invalid matrices still return an error.
func (m *Metric) ValueOr(c Confusion, fallback float64) (float64, error) {
	v, err := m.Value(c)
	if err == nil {
		return v, nil
	}
	if IsUndefined(err) {
		return fallback, nil
	}
	return 0, err
}

// Better reports whether value a is strictly better than value b under the
// metric's orientation.
func (m *Metric) Better(a, b float64) bool {
	if m.Orientation == LowerIsBetter {
		return a < b
	}
	return a > b
}

// Goodness maps a raw metric value to a higher-is-better value, so that
// ranking code can treat all metrics uniformly: lower-is-better metrics are
// negated.
func (m *Metric) Goodness(v float64) float64 {
	if m.Orientation == LowerIsBetter {
		return -v
	}
	return v
}

// Bounded reports whether the metric's theoretical range is finite on both
// sides.
func (m *Metric) Bounded() bool {
	return !math.IsInf(m.Lo, 0) && !math.IsInf(m.Hi, 0)
}

// String implements fmt.Stringer.
func (m Metric) String() string { return m.ID }

// IsUndefined reports whether err indicates an undefined metric value.
func IsUndefined(err error) bool {
	var ue *UndefinedError
	return errors.As(err, &ue)
}

// undef is a helper for building UndefinedError values inside compute
// functions.
func undef(metric string, c Confusion, reason string) error {
	return &UndefinedError{Metric: metric, On: c, Reason: reason}
}

// ratio returns num/den or an UndefinedError when den == 0.
func ratio(metric string, c Confusion, num, den float64, reason string) (float64, error) {
	if den == 0 {
		return 0, undef(metric, c, reason)
	}
	return num / den, nil
}
