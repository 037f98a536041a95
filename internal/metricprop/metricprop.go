// Package metricprop analyses candidate benchmark metrics against the
// characteristics of a good metric for the vulnerability detection domain.
//
// The paper's first contribution is a qualitative analysis of a large
// metric set against such characteristics. This package turns each
// characteristic into a programmatic check, so the resulting property table
// (experiment E2) is computed evidence rather than assertion:
//
//   - boundedness: the metric has a finite theoretical range
//   - definedness: how often the metric is defined on realistic and
//     degenerate confusion matrices
//   - monotonicity: converting a miss into a detection never worsens the
//     metric; adding a false alarm never improves it
//   - prevalence invariance: for fixed intrinsic tool quality (TPR, FPR),
//     the metric does not drift as workload prevalence changes
//   - chance correction: all uninformative classifiers (TPR == FPR) map to
//     one constant value
//   - stability: low sampling variance on finite workloads
//   - discrimination: ability to order two close tools correctly from one
//     sampled workload
package metricprop

import (
	"errors"
	"fmt"
	"math"

	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// Config controls the sampling effort and tolerances of the analysis.
type Config struct {
	// MonotonicitySamples is the number of random matrices used for the
	// monotonicity checks.
	MonotonicitySamples int
	// WorkloadSize is the synthetic workload size used by the prevalence,
	// stability and discrimination checks.
	WorkloadSize int
	// StabilityTrials is the number of sampled workloads for the stability
	// estimate.
	StabilityTrials int
	// DiscriminationTrials is the number of sampled workloads for the
	// discrimination estimate.
	DiscriminationTrials int
	// Tolerance is the absolute tolerance used when deciding invariance
	// properties from sampled spreads.
	Tolerance float64
}

// DefaultConfig returns the configuration used by experiment E2.
func DefaultConfig() Config {
	return Config{
		MonotonicitySamples:  2000,
		WorkloadSize:         2000,
		StabilityTrials:      200,
		DiscriminationTrials: 400,
		Tolerance:            1e-9,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MonotonicitySamples <= 0 || c.WorkloadSize <= 0 || c.StabilityTrials <= 0 || c.DiscriminationTrials <= 0 {
		return fmt.Errorf("metricprop: all sample counts must be positive: %+v", c)
	}
	if c.Tolerance <= 0 {
		return fmt.Errorf("metricprop: tolerance must be positive, got %g", c.Tolerance)
	}
	return nil
}

// Profile is the computed property profile of one metric.
type Profile struct {
	MetricID string

	// Bounded is true when the declared theoretical range is finite.
	Bounded bool

	// DefinednessRate is the fraction of sampled matrices (including
	// deliberately degenerate ones) on which the metric is defined.
	DefinednessRate float64

	// MonotoneDetections is true when converting a miss (FN) into a
	// detection (TP) never worsened the metric in any sampled matrix.
	MonotoneDetections bool
	// MonotoneFalseAlarms is true when converting a true negative into a
	// false alarm (FP) never improved the metric in any sampled matrix.
	MonotoneFalseAlarms bool

	// PrevalenceSpread is the max-min spread of the metric across the
	// prevalence sweep at fixed tool quality. PrevalenceInvariant is true
	// when the spread is below tolerance.
	PrevalenceSpread    float64
	PrevalenceInvariant bool

	// ChanceSpread is the max-min spread of the metric across
	// uninformative classifiers (TPR == FPR) of varying rate and
	// prevalence. ChanceCorrected is true when the spread is below
	// tolerance, i.e. all uninformative classifiers collapse to one value.
	ChanceSpread    float64
	ChanceCorrected bool

	// Stability is the standard deviation of the metric across sampled
	// workloads at fixed tool quality, normalised by the metric's range
	// when bounded (smaller is more stable).
	Stability float64

	// Discrimination is the fraction of sampled workloads on which the
	// metric ordered a strictly better tool above a strictly worse one.
	Discrimination float64

	// MissSensitivity and FalseAlarmSensitivity quantify which error type
	// the metric emphasises. Both are the product of (a) the metric's
	// share of reaction attributable to that error type when 10% of
	// detections become misses vs. false alarms appear on 10% of clean
	// instances, and (b) a responsiveness factor that zeroes out metrics
	// that barely react at all. Values are in [0, 1] and comparable across
	// metrics regardless of their ranges: recall scores (1, 0), precision
	// close to (0.1, 0.9), balanced metrics near (0.5, 0.5).
	MissSensitivity       float64
	FalseAlarmSensitivity float64
}

// ToolQuality describes the intrinsic quality of a (simulated) detection
// tool: the probability it reports a vulnerable instance and the
// probability it reports a clean one.
type ToolQuality struct {
	TPR float64
	FPR float64
}

// Validate reports whether the quality values are probabilities.
func (q ToolQuality) Validate() error {
	if q.TPR < 0 || q.TPR > 1 || q.FPR < 0 || q.FPR > 1 {
		return fmt.Errorf("metricprop: tool quality out of [0,1]: %+v", q)
	}
	return nil
}

// reference tool qualities used by the sweeps. The pair used by the
// discrimination check is deliberately close: the better tool dominates in
// both dimensions but only slightly.
var (
	refQuality    = ToolQuality{TPR: 0.70, FPR: 0.10}
	betterQuality = ToolQuality{TPR: 0.72, FPR: 0.09}
	worseQuality  = ToolQuality{TPR: 0.68, FPR: 0.11}

	prevalenceSweep = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	chanceRates     = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
)

// analyze computes the property profile of m. The definedness and
// monotonicity checks draw on m's own stream, split in that order; the
// stability and discrimination checks score m on the catalogue's shared
// matrices.
func analyze(m metrics.Metric, cfg Config, rng *stats.RNG, set *matrixSet) (Profile, error) {
	p := Profile{
		MetricID: m.ID,
		Bounded:  m.Bounded(),
	}
	p.DefinednessRate = definednessRate(m, rng.Split())
	p.MonotoneDetections, p.MonotoneFalseAlarms = monotonicity(m, cfg, rng.Split())
	p.PrevalenceSpread = prevalenceSpread(m, cfg)
	p.PrevalenceInvariant = p.PrevalenceSpread <= cfg.Tolerance
	p.ChanceSpread = chanceSpread(m)
	p.ChanceCorrected = p.ChanceSpread <= cfg.Tolerance
	var err error
	if p.Stability, err = stability(m, set.stability); err != nil {
		return Profile{}, err
	}
	p.Discrimination = discrimination(m, set.better, set.worse)
	p.MissSensitivity, p.FalseAlarmSensitivity = sensitivities(m, cfg)
	return p, nil
}

// sensitivities measures the goodness drops when (a) 10% of detections
// become misses and (b) false alarms appear on 10% of clean instances, at
// the reference operating point, then converts the two drops into
// comparable emphasis scores: share-of-reaction times a responsiveness
// factor. Metrics undefined at any of the three points score zero.
func sensitivities(m metrics.Metric, cfg Config) (miss, fa float64) {
	base := expectedMatrix(refQuality, cfg.WorkloadSize, 0.35)
	baseVal, err := m.Value(base)
	if err != nil {
		return 0, 0
	}
	shift := base.TP / 10
	if shift == 0 {
		shift = 1
	}
	missed := metrics.Confusion{TP: base.TP - shift, FN: base.FN + shift, FP: base.FP, TN: base.TN}
	extra := base.TN / 10
	if extra == 0 {
		extra = 1
	}
	alarmed := metrics.Confusion{TP: base.TP, FN: base.FN, FP: base.FP + extra, TN: base.TN - extra}

	// Normalise the drops: by range for bounded metrics, relative to the
	// base value for unbounded ones (the only scale they have).
	norm := 1.0
	if m.Bounded() && m.Hi > m.Lo {
		norm = m.Hi - m.Lo
	} else {
		norm = abs(baseVal) + 1
	}
	var missDelta, faDelta float64
	if v, err := m.Value(missed); err == nil {
		missDelta = (m.Goodness(baseVal) - m.Goodness(v)) / norm
	}
	if v, err := m.Value(alarmed); err == nil {
		faDelta = (m.Goodness(baseVal) - m.Goodness(v)) / norm
	}
	if missDelta < 0 {
		missDelta = 0
	}
	if faDelta < 0 {
		faDelta = 0
	}
	total := missDelta + faDelta
	if total == 0 {
		return 0, 0
	}
	// Responsiveness: a metric whose combined reaction to 10% degradations
	// is below 5% of its scale barely registers tool differences.
	responsiveness := total / 0.05
	if responsiveness > 1 {
		responsiveness = 1
	}
	return responsiveness * missDelta / total, responsiveness * faDelta / total
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AnalyzeCatalog profiles every metric in the catalogue with one shared
// config. Results are in catalogue order. Each metric gets its own RNG
// stream, split off the caller's generator in catalogue order, for its
// definedness and monotonicity checks. One more stream, split after
// them, draws the sampled matrices of the stability and discrimination
// checks once for the whole catalogue: every metric is scored on the same
// workloads (common random numbers), so two metrics that order every
// matrix alike get the same discrimination.
func AnalyzeCatalog(cfg Config, rng *stats.RNG) ([]Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("metricprop: nil RNG")
	}
	cat := metrics.Catalog()
	rngs := make([]*stats.RNG, len(cat))
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	set := drawMatrixSet(cfg, rng.Split())
	out := make([]Profile, len(cat))
	for i, m := range cat {
		p, err := analyze(m, cfg, rngs[i], set)
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", m.ID, err)
		}
		out[i] = p
	}
	return out, nil
}

// definednessRate evaluates the metric on a fixed family of degenerate
// matrices (every subset of cells zeroed) plus random dense matrices, and
// returns the fraction on which it is defined.
func definednessRate(m metrics.Metric, rng *stats.RNG) float64 {
	var total, defined int
	// All 16 zero-patterns with remaining cells set to a nominal count.
	for mask := 0; mask < 16; mask++ {
		c := metrics.Confusion{}
		if mask&1 != 0 {
			c.TP = 25
		}
		if mask&2 != 0 {
			c.FP = 25
		}
		if mask&4 != 0 {
			c.FN = 25
		}
		if mask&8 != 0 {
			c.TN = 25
		}
		total++
		if _, err := m.Value(c); err == nil {
			defined++
		}
	}
	// Random dense matrices: these should essentially always be defined.
	for i := 0; i < 200; i++ {
		c := metrics.Confusion{
			TP: 1 + rng.Intn(100),
			FP: 1 + rng.Intn(100),
			FN: 1 + rng.Intn(100),
			TN: 1 + rng.Intn(100),
		}
		total++
		if _, err := m.Value(c); err == nil {
			defined++
		}
	}
	return float64(defined) / float64(total)
}

// monotonicity samples random matrices and applies the two elementary
// improving/worsening moves, checking the metric's goodness direction.
func monotonicity(m metrics.Metric, cfg Config, rng *stats.RNG) (detectionsOK, falseAlarmsOK bool) {
	detectionsOK, falseAlarmsOK = true, true
	const eps = 1e-12
	for i := 0; i < cfg.MonotonicitySamples; i++ {
		c := metrics.Confusion{
			TP: 1 + rng.Intn(60),
			FP: 1 + rng.Intn(60),
			FN: 1 + rng.Intn(60),
			TN: 1 + rng.Intn(60),
		}
		base, err := m.Value(c)
		if err != nil {
			continue
		}
		// Miss -> detection: TP+1, FN-1 (same totals, same prevalence).
		improved := metrics.Confusion{TP: c.TP + 1, FP: c.FP, FN: c.FN - 1, TN: c.TN}
		if v, err := m.Value(improved); err == nil {
			if m.Goodness(v) < m.Goodness(base)-eps {
				detectionsOK = false
			}
		}
		// Clean -> false alarm: FP+1, TN-1.
		worsened := metrics.Confusion{TP: c.TP, FP: c.FP + 1, FN: c.FN, TN: c.TN - 1}
		if v, err := m.Value(worsened); err == nil {
			if m.Goodness(v) > m.Goodness(base)+eps {
				falseAlarmsOK = false
			}
		}
	}
	return detectionsOK, falseAlarmsOK
}

// expectedMatrix builds the exact-expectation confusion matrix for a tool
// of quality q on a workload of the given size and prevalence. Rounding is
// to nearest; totals are preserved.
func expectedMatrix(q ToolQuality, size int, prevalence float64) metrics.Confusion {
	pos := int(math.Round(float64(size) * prevalence))
	neg := size - pos
	tp := int(math.Round(float64(pos) * q.TPR))
	fp := int(math.Round(float64(neg) * q.FPR))
	return metrics.Confusion{TP: tp, FN: pos - tp, FP: fp, TN: neg - fp}
}

// prevalenceSpread computes the metric for the reference tool across the
// prevalence sweep and returns the max-min spread. Undefined points are
// skipped; a metric undefined on more than half the sweep gets +Inf spread
// (it cannot be relied on across prevalence regimes at all).
func prevalenceSpread(m metrics.Metric, cfg Config) float64 {
	// A large fixed workload keeps integer rounding noise far below any
	// meaningful spread.
	const size = 200000
	var vals []float64
	for _, p := range prevalenceSweep {
		c := expectedMatrix(refQuality, size, p)
		if v, err := m.Value(c); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) < len(prevalenceSweep)/2 {
		return math.Inf(1)
	}
	lo, hi, err := stats.MinMax(vals)
	if err != nil {
		return math.Inf(1)
	}
	spread := hi - lo
	// Integer rounding on the 200k-instance matrix perturbs rates by
	// ~1e-5; treat spreads at that scale as zero.
	if spread < 1e-4 {
		return 0
	}
	return spread
}

// chanceSpread evaluates the metric on uninformative classifiers
// (TPR == FPR == r) across rates and prevalences, returning the max-min
// spread of the defined values. A chance-corrected metric collapses all of
// them to a single constant.
func chanceSpread(m metrics.Metric) float64 {
	const size = 200000
	var vals []float64
	for _, r := range chanceRates {
		for _, p := range prevalenceSweep {
			c := expectedMatrix(ToolQuality{TPR: r, FPR: r}, size, p)
			if v, err := m.Value(c); err == nil {
				vals = append(vals, v)
			}
		}
	}
	if len(vals) == 0 {
		return math.Inf(1)
	}
	lo, hi, err := stats.MinMax(vals)
	if err != nil {
		return math.Inf(1)
	}
	spread := hi - lo
	if spread < 1e-4 {
		return 0
	}
	return spread
}

// sampleMatrix draws a binomially sampled confusion matrix for a tool of
// quality q on a workload with the given positives/negatives split:
// TP ~ Binomial(positives, TPR) and FP ~ Binomial(negatives, FPR), the
// counts of one Bernoulli draw per instance, drawn as two counts.
func sampleMatrix(rng *stats.RNG, q ToolQuality, positives, negatives int) metrics.Confusion {
	tp := rng.Binomial(positives, q.TPR)
	fp := rng.Binomial(negatives, q.FPR)
	return metrics.Confusion{TP: tp, FN: positives - tp, FP: fp, TN: negatives - fp}
}

// matrixSet holds the sampled workloads every metric of a catalogue is
// scored on, at the reference 0.35 prevalence: the stability matrices of
// the reference tool, and one better/worse pair per discrimination trial.
type matrixSet struct {
	stability     []metrics.Confusion
	better, worse []metrics.Confusion
}

// drawMatrixSet samples the stability matrices first, then the
// discrimination pairs, each pair's better tool before its worse one.
func drawMatrixSet(cfg Config, rng *stats.RNG) *matrixSet {
	pos := int(math.Round(float64(cfg.WorkloadSize) * 0.35))
	neg := cfg.WorkloadSize - pos
	s, t := cfg.StabilityTrials, cfg.DiscriminationTrials
	all := make([]metrics.Confusion, s+2*t)
	set := &matrixSet{stability: all[:s], better: all[s : s+t], worse: all[s+t:]}
	for i := range set.stability {
		set.stability[i] = sampleMatrix(rng, refQuality, pos, neg)
	}
	for i := range set.better {
		set.better[i] = sampleMatrix(rng, betterQuality, pos, neg)
		set.worse[i] = sampleMatrix(rng, worseQuality, pos, neg)
	}
	return set
}

// stability is the standard deviation of the metric over the sampled
// matrices, normalised by range when bounded.
func stability(m metrics.Metric, cs []metrics.Confusion) (float64, error) {
	vals := make([]float64, 0, len(cs))
	for _, c := range cs {
		if v, err := m.Value(c); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return math.Inf(1), nil
	}
	sd, err := stats.StdDev(vals)
	if err != nil {
		return 0, err
	}
	if m.Bounded() && m.Hi > m.Lo {
		return sd / (m.Hi - m.Lo), nil
	}
	return sd, nil
}

// discrimination is the fraction of sampled workloads, among those where
// the metric is defined for both tools, on which it orders the strictly
// better tool above the strictly worse one.
func discrimination(m metrics.Metric, better, worse []metrics.Confusion) float64 {
	correct, decided := 0, 0
	for i := range better {
		vb, err1 := m.Value(better[i])
		vw, err2 := m.Value(worse[i])
		if err1 != nil || err2 != nil {
			continue
		}
		decided++
		if m.Better(vb, vw) {
			correct++
		}
	}
	if decided == 0 {
		return 0
	}
	return float64(correct) / float64(decided)
}
