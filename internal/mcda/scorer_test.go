package mcda_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/core"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
)

// e10Sigmas restates the judgment-noise axis of E10
// (internal/experiments), the sigmas the in-place path serves.
var e10Sigmas = []float64{0.05, 0.1, 0.2, 0.3, 0.5}

// catalogProblem is E10's decision problem, the metric catalogue scored
// against the scenario criteria, from a reduced property analysis.
func catalogProblem(t *testing.T) mcda.Problem {
	t.Helper()
	profiles, err := metricprop.AnalyzeCatalog(metricprop.Config{
		MonotonicitySamples:  60,
		WorkloadSize:         150,
		StabilityTrials:      15,
		DiscriminationTrials: 20,
		Tolerance:            1e-9,
	}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProblem(profiles)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAHPScorerMatchesAHPOfPerturb is the bit-exact differential of the
// in-place path core.WinnerStability runs (one scorer, one perturbed
// matrix reused across trials) against the per-trial AHP(Perturb(…))
// reference: equal results with no tolerance, on equal RNG draws. It runs
// E10's default 300 trials per (scenario, sigma) point, 6000 in all.
func TestAHPScorerMatchesAHPOfPerturb(t *testing.T) {
	problem := catalogProblem(t)
	const trials = 300
	for si, s := range scenario.Scenarios() {
		weights, err := s.WeightVector()
		if err != nil {
			t.Fatal(err)
		}
		consensus, err := mcda.FromWeights(weights)
		if err != nil {
			t.Fatal(err)
		}
		scorer, err := mcda.NewAHPScorer(problem)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := mcda.NewPairwise(consensus.N())
		if err != nil {
			t.Fatal(err)
		}
		for k, sigma := range e10Sigmas {
			seed := uint64(100*si + k + 1)
			ref, fast := stats.NewRNG(seed), stats.NewRNG(seed)
			for i := 0; i < trials; i++ {
				perturbed, err := mcda.Perturb(consensus, sigma, ref)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mcda.AHP(perturbed, problem)
				if err != nil {
					t.Fatal(err)
				}
				if err := mcda.PerturbInto(noisy, consensus, sigma, fast); err != nil {
					t.Fatal(err)
				}
				got, err := scorer.Score(noisy)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sigma %g trial %d: in-place AHP %+v, want %+v", s.ID, sigma, i, got, want)
				}
			}
			if a, b := ref.Uint64(), fast.Uint64(); a != b {
				t.Fatalf("%s sigma %g: RNG streams diverged after %d trials", s.ID, sigma, trials)
			}
		}
	}
}

// TestAHPScorerErrorsMatchAHP: the checks the scorer hoists out of the
// trial loop still fail, with the reference path's errors.
func TestAHPScorerErrorsMatchAHP(t *testing.T) {
	// A non-finite score fails the problem validation.
	bad := catalogProblem(t)
	bad.Scores[3] = append([]float64(nil), bad.Scores[3]...)
	bad.Scores[3][1] = math.NaN()
	consensus, err := mcda.NewPairwise(len(bad.Criteria))
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := mcda.AHP(consensus, bad)
	_, gotErr := mcda.NewAHPScorer(bad)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("non-finite score: scorer error %v, want %v", gotErr, wantErr)
	}

	// Saaty's random index stops at n = 15: every trial of a 16-criterion
	// problem fails after the same draws on both paths.
	const n = 16
	wide := mcda.Problem{Alternatives: []string{"a", "b", "c"}, Scores: make([][]float64, 3)}
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		wide.Criteria = append(wide.Criteria, string(rune('A'+j)))
		weights[j] = float64(j + 1)
	}
	for i := range wide.Scores {
		wide.Scores[i] = make([]float64, n)
		for j := range wide.Scores[i] {
			wide.Scores[i][j] = float64((i + j) % 3)
		}
	}
	wideConsensus, err := mcda.FromWeights(weights)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := mcda.NewAHPScorer(wide)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := mcda.NewPairwise(n)
	if err != nil {
		t.Fatal(err)
	}
	ref, fast := stats.NewRNG(5), stats.NewRNG(5)
	for i := 0; i < 3; i++ {
		perturbed, err := mcda.Perturb(wideConsensus, 0.2, ref)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := mcda.AHP(perturbed, wide)
		if err := mcda.PerturbInto(noisy, wideConsensus, 0.2, fast); err != nil {
			t.Fatal(err)
		}
		_, gotErr := scorer.Score(noisy)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("n = %d trial %d: scorer error %v, want %v", n, i, gotErr, wantErr)
		}
	}
	if ref.Uint64() != fast.Uint64() {
		t.Fatal("RNG streams diverged on the failing trials")
	}
}
