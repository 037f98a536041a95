package stats

import (
	"fmt"
	"math"
)

// McNemarResult is the outcome of McNemar's test for paired binary
// outcomes.
type McNemarResult struct {
	// B counts cases where the first system was correct and the second
	// wrong; C the reverse. Concordant pairs carry no information and are
	// not part of the statistic.
	B, C int
	// Statistic is the continuity-corrected chi-square statistic
	// (|B−C|−1)²/(B+C), 0 when B+C == 0.
	Statistic float64
	// PValue is the two-sided p-value under the chi-square distribution
	// with one degree of freedom (1 when B+C == 0: no evidence at all).
	PValue float64
}

// Significant reports whether the difference is significant at the given
// alpha (e.g. 0.05).
func (r McNemarResult) Significant(alpha float64) bool { return r.PValue < alpha }

// McNemar runs McNemar's test with continuity correction on the
// discordant-pair counts of two systems evaluated on the same cases. It is
// the statistically appropriate way to ask "does tool A classify this
// workload's sinks better than tool B?" — comparing two accuracies with
// independent-sample machinery overstates significance because the tools
// share every case.
func McNemar(b, c int) (McNemarResult, error) {
	if b < 0 || c < 0 {
		return McNemarResult{}, fmt.Errorf("stats: McNemar needs non-negative counts, got b=%d c=%d", b, c)
	}
	res := McNemarResult{B: b, C: c}
	n := float64(b + c)
	if n == 0 {
		res.PValue = 1
		return res, nil
	}
	diff := math.Abs(float64(b-c)) - 1
	if diff < 0 {
		diff = 0
	}
	res.Statistic = diff * diff / n
	res.PValue = chiSquare1PValue(res.Statistic)
	return res, nil
}

// chiSquare1PValue returns the upper-tail probability of the chi-square
// distribution with one degree of freedom: P(X >= x) = erfc(sqrt(x/2)).
func chiSquare1PValue(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Erfc(math.Sqrt(x / 2))
}
