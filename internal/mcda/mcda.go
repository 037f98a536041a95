// Package mcda implements the multi-criteria decision analysis methods the
// paper uses to validate metric selection: the Analytic Hierarchy Process
// (pairwise expert judgments, principal-eigenvector priorities, Saaty
// consistency ratio) as the primary method, with weighted-sum and TOPSIS
// as baselines to check that conclusions are not artefacts of one method.
package mcda

import (
	"errors"
	"fmt"
	"math"

	"github.com/dsn2015/vdbench/internal/stats"
)

// Problem is a generic MCDA decision problem: alternatives scored on
// benefit criteria (higher raw score is better on every criterion;
// cost-like criteria must be inverted by the caller before building the
// problem).
type Problem struct {
	// Criteria names the decision criteria.
	Criteria []string
	// Alternatives names the options being ranked.
	Alternatives []string
	// Scores[i][j] is the raw performance of alternative i on criterion j.
	Scores [][]float64
}

// Validate reports whether the problem is well-formed.
func (p Problem) Validate() error {
	if len(p.Criteria) == 0 {
		return errors.New("mcda: no criteria")
	}
	if len(p.Alternatives) == 0 {
		return errors.New("mcda: no alternatives")
	}
	if len(p.Scores) != len(p.Alternatives) {
		return fmt.Errorf("mcda: %d score rows for %d alternatives", len(p.Scores), len(p.Alternatives))
	}
	for i, row := range p.Scores {
		if len(row) != len(p.Criteria) {
			return fmt.Errorf("mcda: alternative %d has %d scores for %d criteria", i, len(row), len(p.Criteria))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mcda: score (%d,%d) is not finite", i, j)
			}
		}
	}
	return nil
}

// checkWeights validates a weight vector against the problem.
func (p Problem) checkWeights(weights []float64) error {
	if len(weights) != len(p.Criteria) {
		return fmt.Errorf("mcda: %d weights for %d criteria", len(weights), len(p.Criteria))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("mcda: negative weight %g", w)
		}
		sum += w
	}
	if sum == 0 {
		return errors.New("mcda: weights sum to zero")
	}
	return nil
}

// normalizeColumnsMinMax rescales each criterion column to [0,1]
// ((x-min)/(max-min)); constant columns map to 0.5 (no discriminating
// information either way).
func normalizeColumnsMinMax(p Problem) [][]float64 {
	nAlt, nCrit := len(p.Alternatives), len(p.Criteria)
	out := make([][]float64, nAlt)
	for i := range out {
		out[i] = make([]float64, nCrit)
	}
	for j := 0; j < nCrit; j++ {
		lo, hi := p.Scores[0][j], p.Scores[0][j]
		for i := 1; i < nAlt; i++ {
			if p.Scores[i][j] < lo {
				lo = p.Scores[i][j]
			}
			if p.Scores[i][j] > hi {
				hi = p.Scores[i][j]
			}
		}
		for i := 0; i < nAlt; i++ {
			if hi == lo {
				out[i][j] = 0.5
			} else {
				out[i][j] = (p.Scores[i][j] - lo) / (hi - lo)
			}
		}
	}
	return out
}

// WeightedSum ranks alternatives by the weighted sum of min-max normalised
// criterion scores. Returns one aggregate score per alternative in [0,1].
func WeightedSum(p Problem, weights []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.checkWeights(weights); err != nil {
		return nil, err
	}
	out := make([]float64, len(p.Alternatives))
	weightedSumInto(out, make([]float64, len(weights)), normalizeColumnsMinMax(p), weights)
	return out, nil
}

// weightedSumInto writes into out each normalised row's weighted sum under
// weights scaled to sum to one; w receives the scaled weights.
func weightedSumInto(out, w []float64, norm [][]float64, weights []float64) {
	var sum float64
	for _, x := range weights {
		sum += x
	}
	for j, x := range weights {
		w[j] = x / sum
	}
	for i, row := range norm {
		var s float64
		for j, x := range w {
			s += x * row[j]
		}
		out[i] = s
	}
}

// TOPSIS ranks alternatives by closeness to the ideal solution: vector-
// normalised weighted scores, Euclidean distances to the per-criterion
// best (ideal) and worst (anti-ideal) points, closeness = d⁻/(d⁺+d⁻).
// Returns closeness coefficients in [0,1], higher is better.
func TOPSIS(p Problem, weights []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.checkWeights(weights); err != nil {
		return nil, err
	}
	nAlt, nCrit := len(p.Alternatives), len(p.Criteria)
	w := append([]float64(nil), weights...)
	var wsum float64
	for _, x := range w {
		wsum += x
	}
	for i := range w {
		w[i] /= wsum
	}
	// Vector normalisation per column, then weighting.
	v := make([][]float64, nAlt)
	for i := range v {
		v[i] = make([]float64, nCrit)
	}
	for j := 0; j < nCrit; j++ {
		var ss float64
		for i := 0; i < nAlt; i++ {
			ss += p.Scores[i][j] * p.Scores[i][j]
		}
		den := math.Sqrt(ss)
		for i := 0; i < nAlt; i++ {
			if den == 0 {
				v[i][j] = 0
			} else {
				v[i][j] = w[j] * p.Scores[i][j] / den
			}
		}
	}
	ideal := make([]float64, nCrit)
	anti := make([]float64, nCrit)
	for j := 0; j < nCrit; j++ {
		ideal[j], anti[j] = v[0][j], v[0][j]
		for i := 1; i < nAlt; i++ {
			if v[i][j] > ideal[j] {
				ideal[j] = v[i][j]
			}
			if v[i][j] < anti[j] {
				anti[j] = v[i][j]
			}
		}
	}
	out := make([]float64, nAlt)
	for i := 0; i < nAlt; i++ {
		var dPlus, dMinus float64
		for j := 0; j < nCrit; j++ {
			dPlus += (v[i][j] - ideal[j]) * (v[i][j] - ideal[j])
			dMinus += (v[i][j] - anti[j]) * (v[i][j] - anti[j])
		}
		dPlus = math.Sqrt(dPlus)
		dMinus = math.Sqrt(dMinus)
		if dPlus+dMinus == 0 {
			out[i] = 0.5 // all alternatives identical
		} else {
			out[i] = dMinus / (dPlus + dMinus)
		}
	}
	return out, nil
}

// Perturb returns a copy of the pairwise matrix with each
// upper-triangular judgment multiplied by exp(sigma·N(0,1)) (log-normal
// noise), reciprocals maintained. It models inter-expert disagreement for
// the sensitivity analysis.
func Perturb(pw *Pairwise, sigma float64, rng *stats.RNG) (*Pairwise, error) {
	if pw == nil {
		return nil, errors.New("mcda: nil pairwise matrix")
	}
	out, err := NewPairwise(pw.N())
	if err != nil {
		return nil, err
	}
	if err := PerturbInto(out, pw, sigma, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// PerturbInto is Perturb writing into dst, which must have pw's dimension
// and may be pw itself. It draws one normal per upper-triangular entry, in
// row-major order, and overwrites every off-diagonal judgment of dst. On
// error dst holds a partial perturbation.
func PerturbInto(dst, pw *Pairwise, sigma float64, rng *stats.RNG) error {
	if dst == nil || pw == nil {
		return errors.New("mcda: nil pairwise matrix")
	}
	if sigma < 0 {
		return fmt.Errorf("mcda: negative sigma %g", sigma)
	}
	if rng == nil {
		return errors.New("mcda: nil RNG")
	}
	n := pw.N()
	if dst.N() != n {
		return fmt.Errorf("mcda: perturbing a %d×%d matrix into a %d×%d one", n, n, dst.N(), dst.N())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			noisy := pw.At(i, j) * math.Exp(sigma*rng.NormFloat64())
			// Clamp to the Saaty scale bounds to stay a plausible judgment.
			if noisy < 1.0/9.0 {
				noisy = 1.0 / 9.0
			}
			if noisy > 9 {
				noisy = 9
			}
			if err := dst.Set(i, j, noisy); err != nil {
				return err
			}
		}
	}
	return nil
}

// WeightedProduct ranks alternatives by the weighted product of min-max
// normalised criterion scores (WPM): Π score_j^(w_j). A small epsilon
// keeps zero scores from annihilating an alternative outright, matching
// common practice. Returns one aggregate score per alternative in (0, 1].
func WeightedProduct(p Problem, weights []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.checkWeights(weights); err != nil {
		return nil, err
	}
	w := append([]float64(nil), weights...)
	var sum float64
	for _, x := range w {
		sum += x
	}
	for i := range w {
		w[i] /= sum
	}
	const eps = 1e-3
	norm := normalizeColumnsMinMax(p)
	out := make([]float64, len(p.Alternatives))
	for i := range out {
		logScore := 0.0
		for j := range p.Criteria {
			s := norm[i][j]
			if s < eps {
				s = eps
			}
			logScore += w[j] * math.Log(s)
		}
		out[i] = math.Exp(logScore)
	}
	return out, nil
}
