package metricprop

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// fastConfig keeps unit tests quick while exercising every code path.
func fastConfig() Config {
	return Config{
		MonotonicitySamples:  300,
		WorkloadSize:         600,
		StabilityTrials:      60,
		DiscriminationTrials: 80,
		Tolerance:            1e-9,
	}
}

var (
	fastOnce     sync.Once
	fastProfiles []Profile
	fastErr      error
)

// profileOf returns metric id's profile from one fast-config catalogue
// analysis shared by the tests.
func profileOf(t *testing.T, id string) Profile {
	t.Helper()
	fastOnce.Do(func() { fastProfiles, fastErr = AnalyzeCatalog(fastConfig(), stats.NewRNG(11)) })
	if fastErr != nil {
		t.Fatalf("AnalyzeCatalog: %v", fastErr)
	}
	for _, p := range fastProfiles {
		if p.MetricID == id {
			return p
		}
	}
	t.Fatalf("no profile for %s", id)
	return Profile{}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{MonotonicitySamples: 0, WorkloadSize: 1, StabilityTrials: 1, DiscriminationTrials: 1, Tolerance: 1},
		{MonotonicitySamples: 1, WorkloadSize: 0, StabilityTrials: 1, DiscriminationTrials: 1, Tolerance: 1},
		{MonotonicitySamples: 1, WorkloadSize: 1, StabilityTrials: 0, DiscriminationTrials: 1, Tolerance: 1},
		{MonotonicitySamples: 1, WorkloadSize: 1, StabilityTrials: 1, DiscriminationTrials: 0, Tolerance: 1},
		{MonotonicitySamples: 1, WorkloadSize: 1, StabilityTrials: 1, DiscriminationTrials: 1, Tolerance: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestToolQualityValidate(t *testing.T) {
	if err := (ToolQuality{TPR: 0.5, FPR: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []ToolQuality{{TPR: -0.1}, {TPR: 1.1}, {FPR: -0.1}, {FPR: 1.1}} {
		if err := q.Validate(); err == nil {
			t.Errorf("invalid quality %+v accepted", q)
		}
	}
}

func TestAnalyzeCatalogRejectsNilRNG(t *testing.T) {
	if _, err := AnalyzeCatalog(fastConfig(), nil); err == nil {
		t.Fatal("nil RNG accepted by AnalyzeCatalog")
	}
}

func TestAnalyzeCatalogRejectsBadConfig(t *testing.T) {
	if _, err := AnalyzeCatalog(Config{}, stats.NewRNG(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestAnalyzeCatalogDeterministic(t *testing.T) {
	p1, err1 := AnalyzeCatalog(fastConfig(), stats.NewRNG(5))
	p2, err2 := AnalyzeCatalog(fastConfig(), stats.NewRNG(5))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different profiles")
	}
}

func TestAccuracyIsPrevalenceDependent(t *testing.T) {
	p := profileOf(t, metrics.IDAccuracy)
	if p.PrevalenceInvariant {
		t.Fatal("accuracy must NOT be prevalence invariant — this is the paper's key negative result")
	}
	if p.PrevalenceSpread < 0.1 {
		t.Fatalf("accuracy prevalence spread = %g, expected substantial drift", p.PrevalenceSpread)
	}
	if p.ChanceCorrected {
		t.Fatal("accuracy is not chance corrected")
	}
}

func TestPrecisionIsPrevalenceDependent(t *testing.T) {
	p := profileOf(t, metrics.IDPrecision)
	if p.PrevalenceInvariant {
		t.Fatal("precision must not be prevalence invariant")
	}
	// Precision collapses at low prevalence: the spread should be large.
	if p.PrevalenceSpread < 0.3 {
		t.Fatalf("precision prevalence spread = %g, expected > 0.3", p.PrevalenceSpread)
	}
}

func TestRecallIsPrevalenceInvariant(t *testing.T) {
	p := profileOf(t, metrics.IDRecall)
	if !p.PrevalenceInvariant {
		t.Fatalf("recall should be prevalence invariant, spread = %g", p.PrevalenceSpread)
	}
}

func TestInformednessProperties(t *testing.T) {
	p := profileOf(t, metrics.IDInformedness)
	if !p.PrevalenceInvariant {
		t.Fatalf("informedness should be prevalence invariant, spread = %g", p.PrevalenceSpread)
	}
	if !p.ChanceCorrected {
		t.Fatalf("informedness should be chance corrected, spread = %g", p.ChanceSpread)
	}
	if !p.MonotoneDetections || !p.MonotoneFalseAlarms {
		t.Fatal("informedness should be monotone in both directions")
	}
}

func TestMCCChanceCorrected(t *testing.T) {
	p := profileOf(t, metrics.IDMCC)
	if !p.ChanceCorrected {
		t.Fatalf("MCC should be chance corrected, spread = %g", p.ChanceSpread)
	}
	// MCC is NOT prevalence invariant (it mixes markedness in).
	if p.PrevalenceInvariant {
		t.Fatal("MCC should not be fully prevalence invariant")
	}
}

func TestMonotonicityOfClassicMetrics(t *testing.T) {
	for _, id := range []string{
		metrics.IDRecall, metrics.IDPrecision, metrics.IDAccuracy,
		metrics.IDF1, metrics.IDF2, metrics.IDF05, metrics.IDErrorRate,
		metrics.IDJaccard, metrics.IDMCC, metrics.IDKappa,
		metrics.IDBalancedAccuracy, metrics.IDFPR, metrics.IDFNR,
	} {
		p := profileOf(t, id)
		if !p.MonotoneDetections {
			t.Errorf("%s: converting a miss into a detection worsened the metric", id)
		}
		if !p.MonotoneFalseAlarms {
			t.Errorf("%s: adding a false alarm improved the metric", id)
		}
	}
}

func TestDetectedCountIgnoresFalseAlarms(t *testing.T) {
	// The absolute TP count is monotone in detections but completely blind
	// to false alarms — the reason the paper rejects absolute counts.
	p := profileOf(t, metrics.IDDetectedCount)
	if !p.MonotoneDetections {
		t.Fatal("detected-count should improve with detections")
	}
	// Blindness shows up as perfect "monotonicity" (no change at all) but
	// near-zero discrimination between close tools... actually it still
	// discriminates via TP differences, so check prevalence spread instead:
	// TP count grows linearly with prevalence.
	if p.PrevalenceInvariant {
		t.Fatal("absolute count cannot be prevalence invariant")
	}
}

func TestDefinednessRates(t *testing.T) {
	// Accuracy is defined on every non-empty matrix: rate close to 1
	// (only the all-zero pattern fails: 1 of 216 samples).
	acc := profileOf(t, metrics.IDAccuracy)
	if acc.DefinednessRate < 0.99 {
		t.Fatalf("accuracy definedness = %g", acc.DefinednessRate)
	}
	// DOR needs all four marginals non-trivial: rate clearly below 1.
	dor := profileOf(t, metrics.IDDOR)
	if dor.DefinednessRate > 0.97 {
		t.Fatalf("DOR definedness = %g, expected visible gaps", dor.DefinednessRate)
	}
	if acc.DefinednessRate <= dor.DefinednessRate {
		t.Fatal("accuracy should be defined strictly more often than DOR")
	}
}

func TestStabilityBoundedMetrics(t *testing.T) {
	// On a 600-instance workload the sampling noise of F1 should be small
	// but non-zero.
	p := profileOf(t, metrics.IDF1)
	if p.Stability <= 0 || p.Stability > 0.1 {
		t.Fatalf("F1 stability = %g, expected (0, 0.1]", p.Stability)
	}
}

func TestDiscriminationOfGoodMetrics(t *testing.T) {
	// Informedness and F1 should order the dominating tool first most of
	// the time even on modest workloads.
	for _, id := range []string{metrics.IDInformedness, metrics.IDF1, metrics.IDMCC} {
		p := profileOf(t, id)
		if p.Discrimination < 0.6 {
			t.Errorf("%s discrimination = %g, expected >= 0.6", id, p.Discrimination)
		}
	}
}

func TestPrevalenceMetricProfile(t *testing.T) {
	// The "prevalence" pseudo-metric depends on nothing but prevalence:
	// maximal spread, no discrimination ability.
	p := profileOf(t, metrics.IDPrevalence)
	if p.PrevalenceInvariant {
		t.Fatal("prevalence metric invariant to prevalence?")
	}
	if p.Discrimination > 0.6 {
		t.Fatalf("prevalence pseudo-metric discriminates tools (%g)?", p.Discrimination)
	}
}

func TestAnalyzeCatalog(t *testing.T) {
	profiles, err := AnalyzeCatalog(fastConfig(), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != len(metrics.Catalog()) {
		t.Fatalf("profiled %d of %d metrics", len(profiles), len(metrics.Catalog()))
	}
	for _, p := range profiles {
		if p.MetricID == "" {
			t.Fatal("profile missing metric ID")
		}
		if math.IsNaN(p.DefinednessRate) || p.DefinednessRate < 0 || p.DefinednessRate > 1 {
			t.Fatalf("%s definedness rate out of range: %g", p.MetricID, p.DefinednessRate)
		}
		if p.Discrimination < 0 || p.Discrimination > 1 {
			t.Fatalf("%s discrimination out of range: %g", p.MetricID, p.Discrimination)
		}
	}
}

func TestExpectedMatrixConsistency(t *testing.T) {
	c := expectedMatrix(ToolQuality{TPR: 0.7, FPR: 0.1}, 1000, 0.3)
	if c.Total() != 1000 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Positives() != 300 {
		t.Fatalf("positives = %d", c.Positives())
	}
	if c.TP != 210 || c.FP != 70 {
		t.Fatalf("expected matrix = %+v", c)
	}
}

func TestSampleMatrixTotals(t *testing.T) {
	rng := stats.NewRNG(2)
	c := sampleMatrix(rng, ToolQuality{TPR: 0.5, FPR: 0.5}, 100, 200)
	if c.Positives() != 100 || c.Negatives() != 200 {
		t.Fatalf("sampled matrix marginals wrong: %+v", c)
	}
}

// refSampleMatrix is the per-draw loop sampleMatrix replaced: one
// Bernoulli draw per instance.
func refSampleMatrix(rng *stats.RNG, q ToolQuality, positives, negatives int) metrics.Confusion {
	var c metrics.Confusion
	for i := 0; i < positives; i++ {
		if rng.Bernoulli(q.TPR) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for i := 0; i < negatives; i++ {
		if rng.Bernoulli(q.FPR) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

// TestSampleMatrixMatchesPerDrawLoop holds the count sampler to the
// per-draw loop. Where both make at most one draw per cell — workloads
// of zero or one instance (every TPR here is at least 0.5, where a
// single binomial draw is one Float64 against TPR, as Bernoulli's is)
// and the degenerate rates — they give the same matrix and leave the
// generator in the same state. Elsewhere they agree in distribution:
// over many matrices the mean and variance of TP and FP agree within
// five standard errors.
func TestSampleMatrixMatchesPerDrawLoop(t *testing.T) {
	const draws = 4000
	qs := []ToolQuality{refQuality, betterQuality, worseQuality, {TPR: 0.5, FPR: 0.5}, {TPR: 0, FPR: 1}, {TPR: 1, FPR: 0}}
	for i, q := range qs {
		degenerate := q.TPR == 0 || q.TPR == 1
		for _, n := range [][2]int{{0, 0}, {1, 0}, {210, 390}, {700, 1300}} {
			pos, neg := n[0], n[1]
			if degenerate || pos+neg <= 1 {
				got, want := stats.NewRNG(uint64(i)), stats.NewRNG(uint64(i))
				if gc, wc := sampleMatrix(got, q, pos, neg), refSampleMatrix(want, q, pos, neg); gc != wc {
					t.Fatalf("%+v %v: matrix %+v, per-draw loop %+v", q, n, gc, wc)
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("%+v %v: stream diverged after sampling (%#x vs %#x)", q, n, g, w)
				}
				continue
			}
			got, want := stats.NewRNG(uint64(i)), stats.NewRNG(uint64(i)+100)
			var g, w [2][]float64
			for range draws {
				gc, wc := sampleMatrix(got, q, pos, neg), refSampleMatrix(want, q, pos, neg)
				g[0], g[1] = append(g[0], float64(gc.TP)), append(g[1], float64(gc.FP))
				w[0], w[1] = append(w[0], float64(wc.TP)), append(w[1], float64(wc.FP))
			}
			for cell, size := range []int{pos, neg} {
				p := []float64{q.TPR, q.FPR}[cell]
				variance := float64(size) * p * (1 - p)
				gm, _ := stats.Mean(g[cell])
				wm, _ := stats.Mean(w[cell])
				if se := math.Sqrt(2 * variance / draws); math.Abs(gm-wm) > 5*se {
					t.Errorf("%+v %v cell %d: mean %v, per-draw loop %v (5 SE = %v)", q, n, cell, gm, wm, 5*se)
				}
				gv, _ := stats.Variance(g[cell])
				wv, _ := stats.Variance(w[cell])
				// The variance of a sample variance is about 2σ⁴/(N−1).
				if se := variance * math.Sqrt(2*2.0/(draws-1)); math.Abs(gv-wv) > 5*se {
					t.Errorf("%+v %v cell %d: variance %v, per-draw loop %v (5 SE = %v)", q, n, cell, gv, wv, 5*se)
				}
			}
		}
	}
}

// TestCatalogSharesMatrices pins common random numbers: metrics that
// order every pair of matrices alike — recall and fnr, specificity and
// fpr — get exactly the same discrimination.
func TestCatalogSharesMatrices(t *testing.T) {
	for _, pair := range [][2]string{{metrics.IDRecall, metrics.IDFNR}, {metrics.IDSpecificity, metrics.IDFPR}, {metrics.IDInformedness, metrics.IDBalancedAccuracy}} {
		a, b := profileOf(t, pair[0]), profileOf(t, pair[1])
		if a.Discrimination != b.Discrimination {
			t.Errorf("%s discrimination %v, %s %v; shared matrices make them equal", pair[0], a.Discrimination, pair[1], b.Discrimination)
		}
	}
}

func TestSensitivitiesRecallVsPrecision(t *testing.T) {
	rec := profileOf(t, metrics.IDRecall)
	prec := profileOf(t, metrics.IDPrecision)
	// Recall reacts to misses and ignores false alarms; precision the
	// mirror image.
	if rec.MissSensitivity <= 0.05 {
		t.Fatalf("recall miss sensitivity = %g, want clearly positive", rec.MissSensitivity)
	}
	if rec.FalseAlarmSensitivity != 0 {
		t.Fatalf("recall false-alarm sensitivity = %g, want 0", rec.FalseAlarmSensitivity)
	}
	if prec.FalseAlarmSensitivity <= 0.02 {
		t.Fatalf("precision false-alarm sensitivity = %g, want clearly positive", prec.FalseAlarmSensitivity)
	}
	if prec.FalseAlarmSensitivity <= prec.MissSensitivity {
		t.Fatalf("precision should react more to false alarms (%g) than to misses (%g)",
			prec.FalseAlarmSensitivity, prec.MissSensitivity)
	}
	if rec.MissSensitivity <= rec.FalseAlarmSensitivity {
		t.Fatal("recall should react more to misses than to false alarms")
	}
}

func TestSensitivitiesBalancedMetrics(t *testing.T) {
	// F1 and informedness react to both error types.
	for _, id := range []string{metrics.IDF1, metrics.IDInformedness, metrics.IDMCC} {
		p := profileOf(t, id)
		if p.MissSensitivity <= 0 || p.FalseAlarmSensitivity <= 0 {
			t.Errorf("%s sensitivities = (%g, %g), want both positive",
				id, p.MissSensitivity, p.FalseAlarmSensitivity)
		}
	}
}

func TestSensitivitiesFBetaOrdering(t *testing.T) {
	// F2 leans towards misses more than F0.5 does, and vice versa.
	f2 := profileOf(t, metrics.IDF2)
	f05 := profileOf(t, metrics.IDF05)
	if f2.MissSensitivity <= f05.MissSensitivity {
		t.Fatalf("F2 miss sensitivity (%g) should exceed F0.5's (%g)",
			f2.MissSensitivity, f05.MissSensitivity)
	}
	if f05.FalseAlarmSensitivity <= f2.FalseAlarmSensitivity {
		t.Fatalf("F0.5 false-alarm sensitivity (%g) should exceed F2's (%g)",
			f05.FalseAlarmSensitivity, f2.FalseAlarmSensitivity)
	}
}
