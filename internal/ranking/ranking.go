// Package ranking provides rank-correlation utilities: Kendall's tau-b,
// average ranks, and top-k overlap. The experiments use them to quantify
// how strongly different metrics disagree about tool orderings, and how
// well MCDA-produced rankings agree with the analytical selection.
package ranking

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooShort is returned for samples with fewer than two items.
var ErrTooShort = errors.New("ranking: need at least two items")

// ErrLengthMismatch is returned for paired samples of different lengths.
var ErrLengthMismatch = errors.New("ranking: paired samples have different lengths")

// KendallTau computes Kendall's tau-b between two score vectors over the
// same items, with the standard tie correction. Scores are "goodness"
// values: higher means ranked earlier. The result is in [-1, 1]; it is
// undefined (error) when either vector is entirely tied.
func KendallTau(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	n := len(a)
	if n < 2 {
		return 0, ErrTooShort
	}
	var concordant, discordant float64
	var tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				tiesA++
				tiesB++
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case da*db > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := float64(n*(n-1)) / 2
	den := math.Sqrt((n0 - tiesA) * (n0 - tiesB))
	if den == 0 {
		return 0, fmt.Errorf("ranking: tau undefined, a sample is fully tied")
	}
	return (concordant - discordant) / den, nil
}

// Ranks converts scores to ranks (1 = highest score), assigning average
// ranks to ties.
func Ranks(scores []float64) []float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return scores[idx[x]] > scores[idx[y]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

// TopK returns the indices of the k highest scores (ties broken by lower
// index first, for determinism).
func TopK(scores []float64, k int) []int {
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return scores[idx[x]] > scores[idx[y]] })
	return idx[:k]
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k.
func TopKOverlap(a, b []float64, k int) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	if k <= 0 {
		return 0, errors.New("ranking: k must be positive")
	}
	if k > len(a) {
		k = len(a)
	}
	inA := make(map[int]bool, k)
	for _, i := range TopK(a, k) {
		inA[i] = true
	}
	common := 0
	for _, i := range TopK(b, k) {
		if inA[i] {
			common++
		}
	}
	return float64(common) / float64(k), nil
}
