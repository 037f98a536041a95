package core

import (
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
)

// cachedProfiles analyses the full catalogue once per test binary (the
// analysis is the expensive part of these tests).
var (
	profilesOnce sync.Once
	profilesVal  []metricprop.Profile
	profilesErr  error
)

func catalogProfiles(t *testing.T) []metricprop.Profile {
	t.Helper()
	profilesOnce.Do(func() {
		cfg := metricprop.Config{
			MonotonicitySamples:  500,
			WorkloadSize:         2000,
			StabilityTrials:      120,
			DiscriminationTrials: 200,
			Tolerance:            1e-9,
		}
		profilesVal, profilesErr = metricprop.AnalyzeCatalog(cfg, stats.NewRNG(2015))
	})
	if profilesErr != nil {
		t.Fatal(profilesErr)
	}
	return profilesVal
}

func TestBuildProblem(t *testing.T) {
	profiles := catalogProfiles(t)
	p, err := BuildProblem(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Alternatives) != len(metrics.Catalog()) {
		t.Fatalf("alternatives = %d", len(p.Alternatives))
	}
	if len(p.Criteria) != len(scenario.Criteria()) {
		t.Fatalf("criteria = %d", len(p.Criteria))
	}
	if _, err := BuildProblem(nil); err == nil {
		t.Fatal("empty profiles accepted")
	}
	if _, err := BuildProblem([]metricprop.Profile{{}}); err == nil {
		t.Fatal("profile without metric ID accepted")
	}
}

// TestScenarioSelections is the headline result: each scenario's
// analytical selection must surface its expected metric family near the
// top.
func TestScenarioSelections(t *testing.T) {
	profiles := catalogProfiles(t)
	for _, s := range scenario.Scenarios() {
		sel, err := Select(s, profiles)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		top3 := sel.Top(3)
		found := false
		for _, want := range s.ExpectedMetrics {
			for _, got := range top3 {
				if got == want {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: expected one of %v in the top 3, got %v (best=%s)",
				s.ID, s.ExpectedMetrics, top3, sel.Best())
		}
	}
}

func TestSelectionsDifferAcrossScenarios(t *testing.T) {
	// The paper's core claim: no single metric fits all scenarios — the
	// winners must not be identical across all four.
	profiles := catalogProfiles(t)
	winners := map[string]bool{}
	for _, s := range scenario.Scenarios() {
		sel, err := Select(s, profiles)
		if err != nil {
			t.Fatal(err)
		}
		winners[sel.Best()] = true
	}
	if len(winners) < 2 {
		t.Fatalf("all scenarios picked the same winner: %v", winners)
	}
}

func TestAbsoluteCountsNeverWin(t *testing.T) {
	// Absolute counts (detected-count, false-alarm-count) and the
	// prevalence pseudo-metric must never reach any scenario's top 3:
	// that is why the paper rejects them as benchmark metrics.
	banned := map[string]bool{
		metrics.IDDetectedCount:   true,
		metrics.IDFalseAlarmCount: true,
		metrics.IDPrevalence:      true,
	}
	profiles := catalogProfiles(t)
	for _, s := range scenario.Scenarios() {
		sel, err := Select(s, profiles)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range sel.Top(3) {
			if banned[id] {
				t.Errorf("%s: banned metric %s reached the top 3", s.ID, id)
			}
		}
	}
}

func TestSelectionHelpers(t *testing.T) {
	profiles := catalogProfiles(t)
	s := scenario.Scenarios()[0]
	sel, err := Select(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best() != sel.Top(1)[0] {
		t.Fatal("Best and Top(1) disagree")
	}
	if got := sel.Top(1000); len(got) != len(sel.MetricIDs) {
		t.Fatal("Top should clamp k")
	}
	if _, ok := sel.ScoreOf(sel.Best()); !ok {
		t.Fatal("ScoreOf lost the winner")
	}
	if _, ok := sel.ScoreOf("no-such-metric"); ok {
		t.Fatal("ScoreOf resolved a bogus ID")
	}
	// Scores must be sorted along Order.
	for i := 1; i < len(sel.Order); i++ {
		if sel.Scores[sel.Order[i-1]] < sel.Scores[sel.Order[i]] {
			t.Fatal("Order not descending")
		}
	}
}

func TestExpertPanel(t *testing.T) {
	s := scenario.Scenarios()[0]
	panel, err := ExpertPanel(s, 5, 0.15, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(panel) != 5 {
		t.Fatalf("panel size = %d", len(panel))
	}
	// sigma=0: all experts identical to consensus.
	same, err := ExpertPanel(s, 3, 0, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(same); i++ {
		for a := 0; a < same[0].N(); a++ {
			for b := 0; b < same[0].N(); b++ {
				if same[i].At(a, b) != same[0].At(a, b) {
					t.Fatal("zero-sigma panel disagrees")
				}
			}
		}
	}
	if _, err := ExpertPanel(s, 0, 0.1, stats.NewRNG(1)); err == nil {
		t.Fatal("empty panel accepted")
	}
	if _, err := ExpertPanel(s, 3, 0.1, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestAggregateJudgments(t *testing.T) {
	s := scenario.Scenarios()[1]
	panel, err := ExpertPanel(s, 7, 0.2, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := AggregateJudgments(panel)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregation preserves reciprocity and stays on the Saaty scale.
	n := agg.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			prod := agg.At(i, j) * agg.At(j, i)
			if prod < 0.999 || prod > 1.001 {
				t.Fatalf("reciprocity violated at (%d,%d): %g", i, j, prod)
			}
		}
	}
	if _, err := AggregateJudgments(nil); err == nil {
		t.Fatal("empty panel accepted")
	}
}

func TestValidateAgreesWithAnalytical(t *testing.T) {
	profiles := catalogProfiles(t)
	for _, s := range scenario.Scenarios() {
		v, err := Validate(s, profiles, 5, 0.1, stats.NewRNG(77))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !v.AHP.Consistency.Consistent() {
			t.Errorf("%s: aggregated judgments inconsistent (CR=%g)", s.ID, v.AHP.Consistency.CR)
		}
		if v.AgreementTau < 0.6 {
			t.Errorf("%s: AHP vs analytical tau = %g, want >= 0.6", s.ID, v.AgreementTau)
		}
		if v.TopAgreement < 1.0/3.0 {
			t.Errorf("%s: top-3 overlap = %g, want >= 1/3", s.ID, v.TopAgreement)
		}
	}
}

func TestWinnerStability(t *testing.T) {
	profiles := catalogProfiles(t)
	s := scenario.Scenarios()[1] // audit
	low, err := WinnerStability(s, profiles, 0.05, 60, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	high, err := WinnerStability(s, profiles, 0.8, 60, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if low.WinnerAgreement < 0.8 {
		t.Errorf("low-noise winner agreement = %g, want >= 0.8", low.WinnerAgreement)
	}
	if low.WinnerAgreement < high.WinnerAgreement {
		t.Errorf("agreement should not improve with noise: %g < %g", low.WinnerAgreement, high.WinnerAgreement)
	}
	if low.MeanTau <= high.MeanTau-1e-9 {
		t.Errorf("mean tau should degrade with noise: %g vs %g", low.MeanTau, high.MeanTau)
	}
	if _, err := WinnerStability(s, profiles, 0.1, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := WinnerStability(s, profiles, 0.1, 5, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestValidateDeterministic(t *testing.T) {
	profiles := catalogProfiles(t)
	s := scenario.Scenarios()[2]
	v1, err1 := Validate(s, profiles, 5, 0.1, stats.NewRNG(3))
	v2, err2 := Validate(s, profiles, 5, 0.1, stats.NewRNG(3))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1.AgreementTau != v2.AgreementTau || v1.Selection.Best() != v2.Selection.Best() {
		t.Fatal("validation nondeterministic")
	}
}

// TestWinnerStabilityAllocationsDoNotGrowWithTrials: every trial reuses
// the perturbed matrix and the AHP scorer's buffers, so a run allocates
// the same at 30 trials as at 300.
func TestWinnerStabilityAllocationsDoNotGrowWithTrials(t *testing.T) {
	profiles := catalogProfiles(t)
	s := scenario.Scenarios()[1]
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := WinnerStability(s, profiles, 0.2, trials, stats.NewRNG(3)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(30), allocs(300); few != many {
		t.Fatalf("WinnerStability allocates %v times at 30 trials and %v at 300", few, many)
	}
}
