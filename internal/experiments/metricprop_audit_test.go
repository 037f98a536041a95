package experiments

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/dsn2015/vdbench/internal/core"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/scenario"
	"github.com/dsn2015/vdbench/internal/stats"
)

// The metric-property catalogue once sampled the confusion matrices of
// its stability and discrimination checks instance by instance, one
// Bernoulli draw per positive and per negative, on each metric's own
// stream. It now draws TP and FP as two binomial counts, once for the
// whole catalogue. The distribution of a matrix is the same, so the
// tests below hold every stability and discrimination value to the old
// sampler within Monte Carlo error, and check that the verdicts drawn
// from the profiles (E8–E11, E15) hold wherever they held before.

// The tool qualities the analysis samples at: the reference tool of the
// stability check, and the close better/worse pair of the
// discrimination check.
var (
	auditRef    = [2]float64{0.70, 0.10}
	auditBetter = [2]float64{0.72, 0.09}
	auditWorse  = [2]float64{0.68, 0.11}
)

// perDrawMatrix is the old sampler: one Bernoulli(TPR) draw per
// positive, then one Bernoulli(FPR) draw per negative.
func perDrawMatrix(rng *stats.RNG, q [2]float64, pos, neg int) metrics.Confusion {
	var c metrics.Confusion
	for range pos {
		if rng.Bernoulli(q[0]) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for range neg {
		if rng.Bernoulli(q[1]) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

// oldProfiles returns profiles with Stability and Discrimination as the
// old sampler computed them. Each metric's stream is split off the seed's
// generator in catalogue order; its first two splits fed the definedness
// and monotonicity checks (which have not changed), its third the
// stability matrices and its fourth the discrimination pairs.
func oldProfiles(cfg metricprop.Config, seed uint64, profiles []metricprop.Profile) []metricprop.Profile {
	cat := metrics.Catalog()
	rng := stats.NewRNG(seed)
	streams := make([]*stats.RNG, len(cat))
	for i := range streams {
		streams[i] = rng.Split()
	}
	pos := int(math.Round(float64(cfg.WorkloadSize) * 0.35))
	neg := cfg.WorkloadSize - pos
	out := slices.Clone(profiles)
	for i, m := range cat {
		s := streams[i]
		s.Split()
		s.Split()
		stab, disc := s.Split(), s.Split()
		var vals []float64
		for range cfg.StabilityTrials {
			if v, err := m.Value(perDrawMatrix(stab, auditRef, pos, neg)); err == nil {
				vals = append(vals, v)
			}
		}
		out[i].Stability = math.Inf(1)
		if len(vals) >= 2 {
			sd, _ := stats.StdDev(vals)
			if m.Bounded() && m.Hi > m.Lo {
				sd /= m.Hi - m.Lo
			}
			out[i].Stability = sd
		}
		correct, decided := 0, 0
		for range cfg.DiscriminationTrials {
			vb, err1 := m.Value(perDrawMatrix(disc, auditBetter, pos, neg))
			vw, err2 := m.Value(perDrawMatrix(disc, auditWorse, pos, neg))
			if err1 != nil || err2 != nil {
				continue
			}
			decided++
			if m.Better(vb, vw) {
				correct++
			}
		}
		out[i].Discrimination = 0
		if decided > 0 {
			out[i].Discrimination = float64(correct) / float64(decided)
		}
	}
	return out
}

// propVerdicts are the paper's verdicts that read the profiles, in
// verdictNames order, as predicates on the values the experiments compute:
//   - E8: every scenario's analytical winner is in its expected family;
//   - E9: every aggregated panel is consistent (CR < 0.1), and its AHP
//     winner is the analytical winner;
//   - E10: the AHP winner survives at least 70% of the perturbed panels
//     at the lowest judgment noise, in every scenario;
//   - E11: the WSM, AHP and TOPSIS winners all lie in the scenario's
//     expected family;
//   - E15: in at least one scenario the selected metric crowns a
//     different tool than accuracy does.
var verdictNames = []string{"e8-family", "e9-ahp", "e10-stability", "e11-methods", "e15-decision"}

func propVerdicts(t *testing.T, cfg Config, profiles []metricprop.Profile, camp *harness.Campaign) []bool {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	e8, e9, e10, e11, e15 := true, true, true, true, false
	problem, err := core.BuildProblem(profiles)
	must(err)
	acc, err := camp.MetricScores(metrics.MustByID(metrics.IDAccuracy), 0)
	must(err)
	accBest := ranking.TopK(acc, 1)[0]
	rng9, rng10 := stats.NewRNG(cfg.Seed+9), stats.NewRNG(cfg.Seed+10)
	for _, s := range scenario.Scenarios() {
		sel, err := core.Select(s, profiles)
		must(err)
		e8 = e8 && slices.Contains(s.ExpectedMetrics, sel.Best())

		v, err := core.Validate(s, profiles, cfg.PanelSize, cfg.PanelSigma, rng9.Split())
		must(err)
		e9 = e9 && v.AHP.Consistency.Consistent() && v.Selection.Best() == sel.Best()

		for k, sigma := range e10Sigmas { // one stream per sigma, as E10 splits them
			stream := rng10.Split()
			if k == 0 {
				res, err := core.WinnerStability(s, profiles, sigma, cfg.StabilityTrials, stream)
				must(err)
				e10 = e10 && res.WinnerAgreement >= 0.7
			}
		}

		weights, err := s.WeightVector()
		must(err)
		wsm, err := mcda.WeightedSum(problem, weights)
		must(err)
		judgments, err := mcda.FromWeights(weights)
		must(err)
		ahp, err := mcda.AHP(judgments, problem)
		must(err)
		topsis, err := mcda.TOPSIS(problem, weights)
		must(err)
		for _, scores := range [][]float64{wsm, ahp.Scores, topsis} {
			e11 = e11 && slices.Contains(s.ExpectedMetrics, problem.Alternatives[core.Winner(problem.Alternatives, scores)])
		}

		scores, err := camp.MetricScores(metrics.MustByID(sel.Best()), -1)
		must(err)
		e15 = e15 || ranking.TopK(scores, 1)[0] != accBest
	}
	return []bool{e8, e9, e10, e11, e15}
}

// verdictLoss names a verdict the old sampler holds on a seed and the
// new one does not.
type verdictLoss struct {
	verdict string
	seed    uint64
}

// propAudit runs the catalogue on the old and the new sampler for each
// seed. It counts the values outside their bounds — a stability within
// a relative 4/√(S−1) of the old one, a discrimination within
// 4·√(f_old(1−f_old)/T + f_new(1−f_new)/T) + 1/T — and lists the
// verdicts lost: one loss for every seed on which the old sampler holds
// a verdict and the new one fails it. Every value outside its bound and
// every seed on which the samplers disagree about a verdict is logged,
// with how many seeds each verdict holds on per sampler.
func propAudit(t *testing.T, cfg Config, seeds []uint64) (values, outside int, lost []verdictLoss) {
	t.Helper()
	S, T := float64(cfg.Prop.StabilityTrials), float64(cfg.Prop.DiscriminationTrials)
	stabBound := 4 / math.Sqrt(S-1)
	heldOld, heldNew := make([]int, len(verdictNames)), make([]int, len(verdictNames))
	for _, seed := range seeds {
		cfg.Seed = seed
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		want := oldProfiles(cfg.Prop, seed, got)
		for i := range got {
			g, w := got[i], want[i]
			values += 2
			if !withinRelative(g.Stability, w.Stability, stabBound) {
				outside++
				t.Logf("seed %d %s: stability %v, old sampler %v (relative bound %.4f)", seed, g.MetricID, g.Stability, w.Stability, stabBound)
			}
			fn, fo := g.Discrimination, w.Discrimination
			if bound := 4*math.Sqrt(fo*(1-fo)/T+fn*(1-fn)/T) + 1/T; math.Abs(fn-fo) > bound {
				outside++
				t.Logf("seed %d %s: discrimination %v, old sampler %v (bound %.4f)", seed, g.MetricID, fn, fo, bound)
			}
		}
		camp, err := r.CampaignCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		vNew, vOld := propVerdicts(t, cfg, got, camp), propVerdicts(t, cfg, want, camp)
		for k, name := range verdictNames {
			if vOld[k] {
				heldOld[k]++
			}
			if vNew[k] {
				heldNew[k]++
			}
			if vOld[k] != vNew[k] {
				t.Logf("seed %d: %s holds with the old sampler: %v, with the new: %v", seed, name, vOld[k], vNew[k])
			}
			if vOld[k] && !vNew[k] {
				lost = append(lost, verdictLoss{name, seed})
			}
		}
	}
	for k, name := range verdictNames {
		t.Logf("%s: held on %d of %d seeds with the old sampler, %d with the new", name, heldOld[k], len(seeds), heldNew[k])
	}
	return values, outside, lost
}

// withinRelative reports whether got lies within a relative tol of want;
// infinite values (a metric defined on fewer than two matrices) must
// agree exactly.
func withinRelative(got, want, tol float64) bool {
	if math.IsInf(got, 0) || math.IsInf(want, 0) || want == 0 {
		return got == want
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// quickLosses are the verdicts the new sampler loses on quick seeds 1–5:
// at seed 5 the old sampler's TOPSIS crowns specificity for auto-gating
// and the new one's crowns prevalence-threshold, by 5e-5 of closeness
// (0.77568 against 0.77563). At the quick config's 120 discrimination
// trials the discrimination criterion alone carries a standard error of
// about 0.07, so that race is decided by the noise of each sampler's
// stream; the old sampler loses it the other way at seed 2. The loss
// stands: it is listed here so that the test fails on any other loss,
// and also once this one is gone.
var quickLosses = []verdictLoss{{"e11-methods", 5}}

// TestMetricPropAgreesWithOldSampler is the tier-1 audit of the
// catalogue's sampler on quick seeds 1–5. The 20-seed default-config
// sweep is TestMetricPropAuditDefaultSweep, behind the audit build tag.
func TestMetricPropAgreesWithOldSampler(t *testing.T) {
	values, outside, lost := propAudit(t, QuickConfig(), []uint64{1, 2, 3, 4, 5})
	if outside > 0 {
		t.Errorf("%d of %d values outside their Monte Carlo bound", outside, values)
	}
	if !slices.Equal(lost, quickLosses) {
		t.Errorf("verdicts lost %v, want exactly %v", lost, quickLosses)
	}
}

// TestEquivalentMetricsTie: metrics that are monotone transforms of each
// other score the same on every criterion, to the bit, so the
// selection's metric-ID tie-break decides between them.
func TestEquivalentMetricsTie(t *testing.T) {
	pairs := [][2]string{
		{metrics.IDInformedness, metrics.IDBalancedAccuracy},
		{metrics.IDRecall, metrics.IDFNR},
		{metrics.IDSpecificity, metrics.IDFPR},
		{metrics.IDPrecision, metrics.IDFDR},
		{metrics.IDNPV, metrics.IDFOR},
		{metrics.IDAccuracy, metrics.IDErrorRate},
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		cfg := QuickConfig()
		cfg.Seed = seed
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		profiles, err := r.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		problem, err := core.BuildProblem(profiles)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			a, b := slices.Index(problem.Alternatives, p[0]), slices.Index(problem.Alternatives, p[1])
			if !slices.Equal(problem.Scores[a], problem.Scores[b]) {
				t.Errorf("seed %d: %s scores %v, %s %v", seed, p[0], problem.Scores[a], p[1], problem.Scores[b])
			}
		}
	}
}
