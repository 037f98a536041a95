package mcda

import (
	"errors"
	"fmt"

	"github.com/dsn2015/vdbench/internal/linalg"
)

// Pairwise is a positive reciprocal pairwise-comparison matrix on the
// Saaty 1–9 scale: entry (i,j) states how much more important element i is
// than element j. The diagonal is fixed at 1 and (j,i) is maintained as
// the reciprocal of (i,j).
type Pairwise struct {
	m *linalg.Matrix
}

// NewPairwise returns an n×n identity-judgment matrix (everything equally
// important).
func NewPairwise(n int) (*Pairwise, error) {
	if n < 2 {
		return nil, fmt.Errorf("mcda: pairwise matrix needs n >= 2, got %d", n)
	}
	m, err := linalg.New(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1)
		}
	}
	return &Pairwise{m: m}, nil
}

// N returns the matrix dimension.
func (p *Pairwise) N() int { return p.m.Rows() }

// At returns judgment (i, j).
func (p *Pairwise) At(i, j int) float64 { return p.m.At(i, j) }

// Set records that element i is v times as important as element j
// (1/9 <= v <= 9, v > 0) and maintains the reciprocal entry. Setting a
// diagonal element is an error.
func (p *Pairwise) Set(i, j int, v float64) error {
	if i == j {
		return errors.New("mcda: cannot set a diagonal judgment")
	}
	if v <= 0 {
		return fmt.Errorf("mcda: judgment must be positive, got %g", v)
	}
	if v < 1.0/9.0-1e-12 || v > 9+1e-12 {
		return fmt.Errorf("mcda: judgment %g outside the Saaty scale [1/9, 9]", v)
	}
	p.m.Set(i, j, v)
	p.m.Set(j, i, 1/v)
	return nil
}

// FromWeights builds the perfectly consistent pairwise matrix implied by a
// positive weight vector (a_ij = w_i / w_j), clamped to the Saaty scale.
// It is the canonical way to encode an expert preference profile.
func FromWeights(weights []float64) (*Pairwise, error) {
	n := len(weights)
	pw, err := NewPairwise(n)
	if err != nil {
		return nil, err
	}
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("mcda: weights must be positive, got %g", w)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := weights[i] / weights[j]
			if r < 1.0/9.0 {
				r = 1.0 / 9.0
			}
			if r > 9 {
				r = 9
			}
			if err := pw.Set(i, j, r); err != nil {
				return nil, err
			}
		}
	}
	return pw, nil
}

// randomIndex is Saaty's RI table for n = 1..15 (0-indexed by n-1). It
// calibrates the consistency ratio against random matrices.
var randomIndex = []float64{
	0, 0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49,
	1.51, 1.54, 1.56, 1.57, 1.58,
}

// Priorities holds the result of an AHP priority derivation.
type Priorities struct {
	// Weights is the principal eigenvector normalised to sum to 1.
	Weights []float64
	// LambdaMax is the principal eigenvalue (>= n; equality iff perfectly
	// consistent).
	LambdaMax float64
	// CI is the consistency index (lambdaMax - n) / (n - 1).
	CI float64
	// CR is the consistency ratio CI / RI(n). Judgments with CR > 0.1 are
	// conventionally considered too inconsistent to use.
	CR float64
}

// Consistent reports whether the judgments pass Saaty's CR < 0.1 rule.
func (p Priorities) Consistent() bool { return p.CR < 0.1 }

// randomIndexFor returns Saaty's random index for an n×n judgment matrix:
// 0 for n <= 2, whose reciprocal matrices are always consistent, and an
// error past the end of the table.
func randomIndexFor(n int) (float64, error) {
	switch {
	case n-1 < len(randomIndex) && randomIndex[n-1] > 0:
		return randomIndex[n-1], nil
	case n <= 2:
		return 0, nil
	default:
		return 0, fmt.Errorf("mcda: no random index for n = %d", n)
	}
}

// Priorities derives the priority vector and consistency diagnostics from
// the pairwise judgments.
func (p *Pairwise) Priorities() (Priorities, error) {
	ri, riErr := randomIndexFor(p.N())
	return p.priorities(new(linalg.PowerWorkspace), ri, riErr)
}

// priorities is Priorities in the workspace w, given the random index ri
// (or its lookup error riErr) for p's dimension. The weights alias w.
func (p *Pairwise) priorities(w *linalg.PowerWorkspace, ri float64, riErr error) (Priorities, error) {
	n := p.N()
	res, err := w.Run(p.m, 10000, 1e-12)
	if err != nil {
		return Priorities{}, fmt.Errorf("mcda: priority derivation: %w", err)
	}
	if riErr != nil {
		return Priorities{}, riErr
	}
	ci := (res.Eigenvalue - float64(n)) / float64(n-1)
	if ci < 0 {
		ci = 0 // numerical guard: lambdaMax >= n analytically
	}
	var cr float64
	if ri > 0 {
		cr = ci / ri
	}
	return Priorities{
		Weights:   res.Eigenvector,
		LambdaMax: res.Eigenvalue,
		CI:        ci,
		CR:        cr,
	}, nil
}

// AHPResult is the outcome of a full AHP run over a decision problem.
type AHPResult struct {
	// CriteriaWeights are the priorities derived from the expert pairwise
	// judgments.
	CriteriaWeights []float64
	// Scores are the aggregate alternative scores under those weights
	// (ratings-mode AHP: min-max normalised criterion performance).
	Scores []float64
	// Consistency carries the judgment-consistency diagnostics.
	Consistency Priorities
}

// AHP runs the ratings variant of the Analytic Hierarchy Process: criteria
// weights come from the pairwise expert judgments; alternatives are scored
// by their normalised measured performance on each criterion. This is the
// standard formulation when alternative performance is measured (as here)
// rather than judged pairwise.
func AHP(judgments *Pairwise, p Problem) (AHPResult, error) {
	if judgments == nil {
		return AHPResult{}, errors.New("mcda: nil judgments")
	}
	s, err := NewAHPScorer(p)
	if err != nil {
		return AHPResult{}, err
	}
	return s.Score(judgments)
}

// AHPScorer runs AHP on one fixed problem under many judgment matrices.
// What does not depend on the judgments is done once by NewAHPScorer:
// validating the problem, min-max normalising its columns and looking up
// Saaty's random index. Each Score derives the priorities and the
// weighted sum in buffers the scorer reuses. A scorer is not safe for
// concurrent use.
type AHPScorer struct {
	p     Problem
	norm  [][]float64
	ri    float64
	riErr error

	power  linalg.PowerWorkspace
	w      []float64 // criteria weights scaled to sum to one
	scores []float64
}

// NewAHPScorer prepares AHP runs over p.
func NewAHPScorer(p Problem) (*AHPScorer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ri, riErr := randomIndexFor(len(p.Criteria))
	return &AHPScorer{
		p:      p,
		norm:   normalizeColumnsMinMax(p),
		ri:     ri,
		riErr:  riErr,
		w:      make([]float64, len(p.Criteria)),
		scores: make([]float64, len(p.Alternatives)),
	}, nil
}

// Score is AHP(judgments, p) for the scorer's problem p. The result's
// slices alias the scorer and are overwritten by the next Score.
func (s *AHPScorer) Score(judgments *Pairwise) (AHPResult, error) {
	if judgments == nil {
		return AHPResult{}, errors.New("mcda: nil judgments")
	}
	if judgments.N() != len(s.p.Criteria) {
		return AHPResult{}, fmt.Errorf("mcda: %d×%d judgments for %d criteria", judgments.N(), judgments.N(), len(s.p.Criteria))
	}
	prio, err := judgments.priorities(&s.power, s.ri, s.riErr)
	if err != nil {
		return AHPResult{}, err
	}
	if err := s.p.checkWeights(prio.Weights); err != nil {
		return AHPResult{}, err
	}
	weightedSumInto(s.scores, s.w, s.norm, prio.Weights)
	return AHPResult{
		CriteriaWeights: prio.Weights,
		Scores:          s.scores,
		Consistency:     prio,
	}, nil
}
