// Package core implements the paper's primary contribution: the metric
// selection methodology for vulnerability detection benchmarks. It wires
// together the computed metric property profiles (internal/metricprop),
// the usage scenarios and their criteria (internal/scenario), and the MCDA
// machinery (internal/mcda) into a pipeline that, per scenario,
//
//  1. scores every candidate metric on every criterion (analytical
//     selection via weighted sum — experiment E8), and
//  2. validates the selection with the Analytic Hierarchy Process over an
//     encoded expert panel (experiment E9), including a sensitivity
//     analysis under judgment perturbation (experiment E10).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
)

// scoreGrid is the spacing BuildProblem rounds every criterion score to.
// Metrics that are monotone transforms of each other (informedness and
// balanced-accuracy, recall and fnr, ...) measure the same property, but
// their computed scores can differ in the last bits, and by platform;
// on the grid they are equal, so a tie between them is a tie and the
// documented metric-ID tie-break decides it, not rounding noise.
const scoreGrid = 1e-9

// BuildProblem converts metric profiles into an MCDA decision problem:
// alternatives are metrics, criteria are the scenario criteria, scores are
// the criterion evaluations of each profile, rounded to scoreGrid.
func BuildProblem(profiles []metricprop.Profile) (mcda.Problem, error) {
	if len(profiles) == 0 {
		return mcda.Problem{}, errors.New("core: no metric profiles")
	}
	crits := scenario.Criteria()
	p := mcda.Problem{
		Criteria:     scenario.CriterionIDs(),
		Alternatives: make([]string, len(profiles)),
		Scores:       make([][]float64, len(profiles)),
	}
	for i, prof := range profiles {
		if prof.MetricID == "" {
			return mcda.Problem{}, fmt.Errorf("core: profile %d has no metric ID", i)
		}
		p.Alternatives[i] = prof.MetricID
		row := make([]float64, len(crits))
		for j, c := range crits {
			row[j] = math.Round(c.Score(prof)/scoreGrid) * scoreGrid
		}
		p.Scores[i] = row
	}
	return p, p.Validate()
}

// Selection is the outcome of metric selection for one scenario.
type Selection struct {
	// Scenario is the usage scenario selected for.
	Scenario scenario.Scenario
	// MetricIDs lists the candidate metrics (problem alternatives).
	MetricIDs []string
	// Scores are the aggregate adequacy scores, aligned with MetricIDs.
	Scores []float64
	// Order lists indices into MetricIDs from best to worst.
	Order []int
}

// Best returns the winning metric ID.
func (s Selection) Best() string {
	return s.MetricIDs[s.Order[0]]
}

// Top returns the k best metric IDs.
func (s Selection) Top(k int) []string {
	if k > len(s.Order) {
		k = len(s.Order)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = s.MetricIDs[s.Order[i]]
	}
	return out
}

// ScoreOf returns the aggregate score of a metric by ID.
func (s Selection) ScoreOf(metricID string) (float64, bool) {
	for i, id := range s.MetricIDs {
		if id == metricID {
			return s.Scores[i], true
		}
	}
	return 0, false
}

// orderOf computes a deterministic best-to-worst order (ties broken by
// metric ID for reproducibility).
func orderOf(ids []string, scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return ids[order[a]] < ids[order[b]]
	})
	return order
}

// Winner returns the index of the best alternative without sorting: the
// highest score, ties broken by the smaller metric ID, then by the lower
// index. It is the first entry of a Selection's Order, and every experiment
// that names a winning metric picks it this way.
func Winner(ids []string, scores []float64) int {
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[best] || (scores[i] == scores[best] && ids[i] < ids[best]) {
			best = i
		}
	}
	return best
}

// Select performs the analytical selection (weighted sum of criterion
// scores under the scenario's importance weights) — the paper's
// per-scenario metric analysis.
func Select(s scenario.Scenario, profiles []metricprop.Profile) (Selection, error) {
	problem, err := BuildProblem(profiles)
	if err != nil {
		return Selection{}, err
	}
	weights, err := s.WeightVector()
	if err != nil {
		return Selection{}, err
	}
	scores, err := mcda.WeightedSum(problem, weights)
	if err != nil {
		return Selection{}, err
	}
	return Selection{
		Scenario:  s,
		MetricIDs: problem.Alternatives,
		Scores:    scores,
		Order:     orderOf(problem.Alternatives, scores),
	}, nil
}

// Validation is the outcome of the MCDA validation for one scenario.
type Validation struct {
	// Scenario is the usage scenario validated.
	Scenario scenario.Scenario
	// AHP carries the AHP scores and consistency diagnostics from the
	// aggregated expert judgments.
	AHP mcda.AHPResult
	// Selection is the AHP-based selection (same alternatives as the
	// analytical one).
	Selection Selection
	// AgreementTau is Kendall's tau-b between the analytical and the AHP
	// rankings.
	AgreementTau float64
	// TopAgreement is the top-3 overlap between the two rankings.
	TopAgreement float64
}

// ExpertPanel derives n expert judgment matrices for a scenario: the
// scenario's weight vector defines the consensus judgment, and each
// expert's matrix is a log-normal perturbation of it (inter-expert
// disagreement). sigma = 0 yields n identical consensus matrices.
func ExpertPanel(s scenario.Scenario, n int, sigma float64, rng *stats.RNG) ([]*mcda.Pairwise, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: panel size must be positive, got %d", n)
	}
	if rng == nil {
		return nil, errors.New("core: nil RNG")
	}
	weights, err := s.WeightVector()
	if err != nil {
		return nil, err
	}
	consensus, err := mcda.FromWeights(weights)
	if err != nil {
		return nil, err
	}
	panel := make([]*mcda.Pairwise, n)
	for i := range panel {
		expert, err := mcda.Perturb(consensus, sigma, rng)
		if err != nil {
			return nil, err
		}
		panel[i] = expert
	}
	return panel, nil
}

// AggregateJudgments combines a panel into one consensus matrix using the
// standard aggregation of individual judgments: the element-wise geometric
// mean, which preserves reciprocity.
func AggregateJudgments(panel []*mcda.Pairwise) (*mcda.Pairwise, error) {
	if len(panel) == 0 {
		return nil, errors.New("core: empty panel")
	}
	n := panel[0].N()
	for i, pw := range panel {
		if pw == nil || pw.N() != n {
			return nil, fmt.Errorf("core: panel member %d has wrong shape", i)
		}
	}
	out, err := mcda.NewPairwise(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			prod := 1.0
			for _, pw := range panel {
				prod *= pw.At(i, j)
			}
			gm := math.Pow(prod, 1/float64(len(panel)))
			if gm < 1.0/9.0 {
				gm = 1.0 / 9.0
			}
			if gm > 9 {
				gm = 9
			}
			if err := out.Set(i, j, gm); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Validate runs the AHP validation for one scenario: build the expert
// panel, aggregate judgments, derive criteria weights by eigenvector,
// score the metrics, and compare with the analytical selection.
func Validate(s scenario.Scenario, profiles []metricprop.Profile, panelSize int, sigma float64, rng *stats.RNG) (Validation, error) {
	analytical, err := Select(s, profiles)
	if err != nil {
		return Validation{}, err
	}
	problem, err := BuildProblem(profiles)
	if err != nil {
		return Validation{}, err
	}
	panel, err := ExpertPanel(s, panelSize, sigma, rng)
	if err != nil {
		return Validation{}, err
	}
	consensus, err := AggregateJudgments(panel)
	if err != nil {
		return Validation{}, err
	}
	ahpRes, err := mcda.AHP(consensus, problem)
	if err != nil {
		return Validation{}, err
	}
	ahpSel := Selection{
		Scenario:  s,
		MetricIDs: problem.Alternatives,
		Scores:    ahpRes.Scores,
		Order:     orderOf(problem.Alternatives, ahpRes.Scores),
	}
	tau, err := ranking.KendallTau(analytical.Scores, ahpRes.Scores)
	if err != nil {
		return Validation{}, fmt.Errorf("core: agreement: %w", err)
	}
	top, err := ranking.TopKOverlap(analytical.Scores, ahpRes.Scores, 3)
	if err != nil {
		return Validation{}, err
	}
	return Validation{
		Scenario:     s,
		AHP:          ahpRes,
		Selection:    ahpSel,
		AgreementTau: tau,
		TopAgreement: top,
	}, nil
}

// StabilityResult reports how stable the AHP winner is under expert
// disagreement of a given magnitude.
type StabilityResult struct {
	Sigma float64
	// WinnerAgreement is the fraction of perturbed panels whose AHP winner
	// equals the consensus winner.
	WinnerAgreement float64
	// MeanTau is the mean Kendall tau between each perturbed ranking and
	// the consensus ranking.
	MeanTau float64
}

// WinnerStability runs the E10 sensitivity analysis: for the given
// judgment-noise level, it draws trials perturbed panels and measures how
// often the winning metric survives.
func WinnerStability(s scenario.Scenario, profiles []metricprop.Profile, sigma float64, trials int, rng *stats.RNG) (StabilityResult, error) {
	if trials <= 0 {
		return StabilityResult{}, fmt.Errorf("core: trials must be positive, got %d", trials)
	}
	if rng == nil {
		return StabilityResult{}, errors.New("core: nil RNG")
	}
	problem, err := BuildProblem(profiles)
	if err != nil {
		return StabilityResult{}, err
	}
	weights, err := s.WeightVector()
	if err != nil {
		return StabilityResult{}, err
	}
	consensus, err := mcda.FromWeights(weights)
	if err != nil {
		return StabilityResult{}, err
	}
	// Only the judgments change between trials: one scorer, one perturbed
	// matrix and the scorer's buffers serve every trial.
	scorer, err := mcda.NewAHPScorer(problem)
	if err != nil {
		return StabilityResult{}, err
	}
	base, err := scorer.Score(consensus)
	if err != nil {
		return StabilityResult{}, err
	}
	baseScores := append([]float64(nil), base.Scores...)
	baseWinner := problem.Alternatives[Winner(problem.Alternatives, baseScores)]
	noisy, err := mcda.NewPairwise(consensus.N())
	if err != nil {
		return StabilityResult{}, err
	}

	agree := 0
	var tauSum float64
	tauCount := 0
	for i := 0; i < trials; i++ {
		if err := mcda.PerturbInto(noisy, consensus, sigma, rng); err != nil {
			return StabilityResult{}, err
		}
		res, err := scorer.Score(noisy)
		if err != nil {
			return StabilityResult{}, err
		}
		if problem.Alternatives[Winner(problem.Alternatives, res.Scores)] == baseWinner {
			agree++
		}
		if tau, err := ranking.KendallTau(baseScores, res.Scores); err == nil {
			tauSum += tau
			tauCount++
		}
	}
	out := StabilityResult{
		Sigma:           sigma,
		WinnerAgreement: float64(agree) / float64(trials),
	}
	if tauCount > 0 {
		out.MeanTau = tauSum / float64(tauCount)
	}
	return out, nil
}
