package metrics

import (
	"fmt"
	"math"
)

// Stable metric identifiers. Experiments and scenario definitions refer to
// metrics by these IDs, so they are part of the public contract.
const (
	IDRecall           = "recall"
	IDPrecision        = "precision"
	IDSpecificity      = "specificity"
	IDNPV              = "npv"
	IDAccuracy         = "accuracy"
	IDErrorRate        = "error-rate"
	IDF1               = "f1"
	IDF05              = "f0.5"
	IDF2               = "f2"
	IDFPR              = "fpr"
	IDFNR              = "fnr"
	IDFDR              = "fdr"
	IDFOR              = "for"
	IDMCC              = "mcc"
	IDInformedness     = "informedness"
	IDMarkedness       = "markedness"
	IDBalancedAccuracy = "balanced-accuracy"
	IDGMean            = "g-mean"
	IDFowlkesMallows   = "fowlkes-mallows"
	IDJaccard          = "jaccard"
	IDKappa            = "kappa"
	IDPrevalence       = "prevalence"
	IDDOR              = "dor"
	IDLRPlus           = "lr+"
	IDLRMinus          = "lr-"
	IDPrevThreshold    = "prevalence-threshold"
	IDDetectedCount    = "detected-count"
	IDFalseAlarmCount  = "false-alarm-count"
	IDCost10           = "cost-10"
)

// tpr/ppv/tnr/npv helpers shared across compute closures. Each returns the
// value and whether it is defined.

func tprOf(c Confusion) (float64, bool) {
	p := c.Positives()
	if p == 0 {
		return 0, false
	}
	return float64(c.TP) / float64(p), true
}

func tnrOf(c Confusion) (float64, bool) {
	n := c.Negatives()
	if n == 0 {
		return 0, false
	}
	return float64(c.TN) / float64(n), true
}

func ppvOf(c Confusion) (float64, bool) {
	pp := c.PredictedPositives()
	if pp == 0 {
		return 0, false
	}
	return float64(c.TP) / float64(pp), true
}

func npvOf(c Confusion) (float64, bool) {
	pn := c.PredictedNegatives()
	if pn == 0 {
		return 0, false
	}
	return float64(c.TN) / float64(pn), true
}

// NormalizedCost returns the normalised expected-cost metric with the
// given miss-to-false-alarm cost ratio: (r·FN + FP) / (r·P + N), the
// fraction of the worst-case misclassification cost actually incurred.
// Cost-based evaluation comes from the intrusion-detection benchmarking
// literature and is one of the "seldom used" alternatives the paper
// gestures at; r = 1 degenerates to the plain error rate. It panics on
// non-positive ratios (catalogue construction uses fixed constants).
func NormalizedCost(ratio float64) Metric {
	if ratio <= 0 {
		panic(fmt.Sprintf("metrics: NormalizedCost requires ratio > 0, got %g", ratio))
	}
	id := fmt.Sprintf("cost-%g", ratio)
	return Metric{
		ID:          id,
		Name:        fmt.Sprintf("Normalised expected cost (miss costs %g false alarms)", ratio),
		Formula:     fmt.Sprintf("(%g·FN + FP) / (%g·(TP+FN) + FP+TN)", ratio, ratio),
		Lo:          0,
		Hi:          1,
		Orientation: LowerIsBetter,
		Reference:   "Gaffney & Ulvila, 2001 (cost-based IDS evaluation)",
		compute: func(c Confusion) (float64, error) {
			den := ratio*float64(c.Positives()) + float64(c.Negatives())
			if den == 0 {
				return 0, undef(id, c, "empty matrix")
			}
			return (ratio*float64(c.FN) + float64(c.FP)) / den, nil
		},
	}
}

// FBeta returns the F-measure metric with the given beta. Beta > 1 weighs
// recall higher (misses costlier than false alarms); beta < 1 weighs
// precision higher. It panics on non-positive beta because the catalogue
// constructs these at program start with fixed constants.
func FBeta(beta float64) Metric {
	if beta <= 0 {
		panic(fmt.Sprintf("metrics: FBeta requires beta > 0, got %g", beta))
	}
	id := fmt.Sprintf("f%g", beta)
	b2 := beta * beta
	return Metric{
		ID:          id,
		Name:        fmt.Sprintf("F-measure (beta=%g)", beta),
		Formula:     fmt.Sprintf("(1+%g²)·TP / ((1+%g²)·TP + %g²·FN + FP)", beta, beta, beta),
		Lo:          0,
		Hi:          1,
		Orientation: HigherIsBetter,
		Reference:   "van Rijsbergen, Information Retrieval, 1979",
		compute: func(c Confusion) (float64, error) {
			den := (1+b2)*float64(c.TP) + b2*float64(c.FN) + float64(c.FP)
			return ratio(id, c, (1+b2)*float64(c.TP), den, "no positives and no positive predictions")
		},
	}
}

// buildCatalog constructs every metric in the study. Catalog calls it for
// each fresh copy; ByID resolves through catalogIndex, built from it once.
func buildCatalog() []Metric {
	all := []Metric{
		{
			ID:          IDRecall,
			Name:        "Recall (true positive rate, sensitivity, detection coverage)",
			Aliases:     []string{"tpr", "sensitivity", "coverage", "hit-rate"},
			Formula:     "TP / (TP + FN)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "standard IR / diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDRecall, c, float64(c.TP), float64(c.Positives()), "no vulnerable instances")
			},
		},
		{
			ID:          IDPrecision,
			Name:        "Precision (positive predictive value)",
			Aliases:     []string{"ppv"},
			Formula:     "TP / (TP + FP)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "standard IR / diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDPrecision, c, float64(c.TP), float64(c.PredictedPositives()), "tool reported nothing")
			},
		},
		{
			ID:          IDSpecificity,
			Name:        "Specificity (true negative rate)",
			Aliases:     []string{"tnr"},
			Formula:     "TN / (TN + FP)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDSpecificity, c, float64(c.TN), float64(c.Negatives()), "no clean instances")
			},
		},
		{
			ID:          IDNPV,
			Name:        "Negative predictive value",
			Formula:     "TN / (TN + FN)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDNPV, c, float64(c.TN), float64(c.PredictedNegatives()), "tool reported everything")
			},
		},
		{
			ID:          IDAccuracy,
			Name:        "Accuracy",
			Formula:     "(TP + TN) / (TP + FP + FN + TN)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "standard classification",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDAccuracy, c, float64(c.TP+c.TN), float64(c.Total()), "empty matrix")
			},
		},
		{
			ID:          IDErrorRate,
			Name:        "Error rate (misclassification rate)",
			Formula:     "(FP + FN) / (TP + FP + FN + TN)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "standard classification",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDErrorRate, c, float64(c.FP+c.FN), float64(c.Total()), "empty matrix")
			},
		},
		FBeta(1),
		FBeta(0.5),
		FBeta(2),
		{
			ID:          IDFPR,
			Name:        "False positive rate (fallout)",
			Aliases:     []string{"fallout"},
			Formula:     "FP / (FP + TN)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "ROC analysis",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDFPR, c, float64(c.FP), float64(c.Negatives()), "no clean instances")
			},
		},
		{
			ID:          IDFNR,
			Name:        "False negative rate (miss rate)",
			Aliases:     []string{"miss-rate"},
			Formula:     "FN / (FN + TP)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "ROC analysis",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDFNR, c, float64(c.FN), float64(c.Positives()), "no vulnerable instances")
			},
		},
		{
			ID:          IDFDR,
			Name:        "False discovery rate",
			Formula:     "FP / (FP + TP)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "Benjamini & Hochberg, 1995",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDFDR, c, float64(c.FP), float64(c.PredictedPositives()), "tool reported nothing")
			},
		},
		{
			ID:          IDFOR,
			Name:        "False omission rate",
			Formula:     "FN / (FN + TN)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDFOR, c, float64(c.FN), float64(c.PredictedNegatives()), "tool reported everything")
			},
		},
		{
			ID:              IDMCC,
			Name:            "Matthews correlation coefficient (phi coefficient)",
			Aliases:         []string{"phi"},
			Formula:         "(TP·TN − FP·FN) / √((TP+FP)(TP+FN)(TN+FP)(TN+FN))",
			Lo:              -1,
			Hi:              1,
			Orientation:     HigherIsBetter,
			ChanceCorrected: true,
			Reference:       "Matthews, 1975",
			compute: func(c Confusion) (float64, error) {
				tp, fp, fn, tn := float64(c.TP), float64(c.FP), float64(c.FN), float64(c.TN)
				den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
				if den == 0 {
					return 0, undef(IDMCC, c, "a marginal is zero")
				}
				return (tp*tn - fp*fn) / den, nil
			},
		},
		{
			ID:              IDInformedness,
			Name:            "Informedness (Youden's J statistic)",
			Aliases:         []string{"youden-j", "bookmaker-informedness"},
			Formula:         "TPR + TNR − 1",
			Lo:              -1,
			Hi:              1,
			Orientation:     HigherIsBetter,
			ChanceCorrected: true,
			Reference:       "Youden, 1950; Powers, 2011",
			compute: func(c Confusion) (float64, error) {
				tpr, ok1 := tprOf(c)
				tnr, ok2 := tnrOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDInformedness, c, "needs both vulnerable and clean instances")
				}
				return tpr + tnr - 1, nil
			},
		},
		{
			ID:              IDMarkedness,
			Name:            "Markedness",
			Formula:         "PPV + NPV − 1",
			Lo:              -1,
			Hi:              1,
			Orientation:     HigherIsBetter,
			ChanceCorrected: true,
			Reference:       "Powers, 2011",
			compute: func(c Confusion) (float64, error) {
				ppv, ok1 := ppvOf(c)
				npv, ok2 := npvOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDMarkedness, c, "needs both positive and negative predictions")
				}
				return ppv + npv - 1, nil
			},
		},
		{
			ID:          IDBalancedAccuracy,
			Name:        "Balanced accuracy",
			Formula:     "(TPR + TNR) / 2",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "Brodersen et al., 2010",
			compute: func(c Confusion) (float64, error) {
				tpr, ok1 := tprOf(c)
				tnr, ok2 := tnrOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDBalancedAccuracy, c, "needs both vulnerable and clean instances")
				}
				return (tpr + tnr) / 2, nil
			},
		},
		{
			ID:          IDGMean,
			Name:        "Geometric mean of TPR and TNR",
			Formula:     "√(TPR · TNR)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "Kubat & Matwin, 1997",
			compute: func(c Confusion) (float64, error) {
				tpr, ok1 := tprOf(c)
				tnr, ok2 := tnrOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDGMean, c, "needs both vulnerable and clean instances")
				}
				return math.Sqrt(tpr * tnr), nil
			},
		},
		{
			ID:          IDFowlkesMallows,
			Name:        "Fowlkes–Mallows index",
			Formula:     "√(PPV · TPR)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "Fowlkes & Mallows, 1983",
			compute: func(c Confusion) (float64, error) {
				ppv, ok1 := ppvOf(c)
				tpr, ok2 := tprOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDFowlkesMallows, c, "needs positives and positive predictions")
				}
				return math.Sqrt(ppv * tpr), nil
			},
		},
		{
			ID:          IDJaccard,
			Name:        "Jaccard index (threat score, critical success index)",
			Aliases:     []string{"threat-score", "csi"},
			Formula:     "TP / (TP + FP + FN)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter,
			Reference:   "Jaccard, 1901",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDJaccard, c, float64(c.TP), float64(c.TP+c.FP+c.FN), "no positives anywhere")
			},
		},
		{
			ID:              IDKappa,
			Name:            "Cohen's kappa",
			Formula:         "(p_o − p_e) / (1 − p_e)",
			Lo:              -1,
			Hi:              1,
			Orientation:     HigherIsBetter,
			ChanceCorrected: true,
			Reference:       "Cohen, 1960",
			compute: func(c Confusion) (float64, error) {
				t := float64(c.Total())
				if t == 0 {
					return 0, undef(IDKappa, c, "empty matrix")
				}
				po := float64(c.TP+c.TN) / t
				pe := (float64(c.Positives())*float64(c.PredictedPositives()) +
					float64(c.Negatives())*float64(c.PredictedNegatives())) / (t * t)
				if pe == 1 {
					return 0, undef(IDKappa, c, "expected agreement is 1")
				}
				return (po - pe) / (1 - pe), nil
			},
		},
		{
			ID:          IDPrevalence,
			Name:        "Prevalence (workload property, not a tool metric)",
			Formula:     "(TP + FN) / (TP + FP + FN + TN)",
			Lo:          0,
			Hi:          1,
			Orientation: HigherIsBetter, // orientation is meaningless; kept for interface uniformity
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				return ratio(IDPrevalence, c, float64(c.Positives()), float64(c.Total()), "empty matrix")
			},
		},
		{
			ID:          IDDOR,
			Name:        "Diagnostic odds ratio",
			Formula:     "(TP·TN) / (FP·FN)",
			Lo:          0,
			Hi:          math.Inf(1),
			Orientation: HigherIsBetter,
			Reference:   "Glas et al., 2003",
			compute: func(c Confusion) (float64, error) {
				den := float64(c.FP) * float64(c.FN)
				if den == 0 {
					return 0, undef(IDDOR, c, "no errors of one kind (odds ratio infinite)")
				}
				return float64(c.TP) * float64(c.TN) / den, nil
			},
		},
		{
			ID:          IDLRPlus,
			Name:        "Positive likelihood ratio",
			Formula:     "TPR / FPR",
			Lo:          0,
			Hi:          math.Inf(1),
			Orientation: HigherIsBetter,
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				tpr, ok := tprOf(c)
				if !ok {
					return 0, undef(IDLRPlus, c, "no vulnerable instances")
				}
				n := c.Negatives()
				if n == 0 {
					return 0, undef(IDLRPlus, c, "no clean instances")
				}
				fpr := float64(c.FP) / float64(n)
				if fpr == 0 {
					return 0, undef(IDLRPlus, c, "zero false positive rate (ratio infinite)")
				}
				return tpr / fpr, nil
			},
		},
		{
			ID:          IDLRMinus,
			Name:        "Negative likelihood ratio",
			Formula:     "FNR / TNR",
			Lo:          0,
			Hi:          math.Inf(1),
			Orientation: LowerIsBetter,
			Reference:   "diagnostic testing",
			compute: func(c Confusion) (float64, error) {
				p := c.Positives()
				if p == 0 {
					return 0, undef(IDLRMinus, c, "no vulnerable instances")
				}
				fnr := float64(c.FN) / float64(p)
				tnr, ok := tnrOf(c)
				if !ok {
					return 0, undef(IDLRMinus, c, "no clean instances")
				}
				if tnr == 0 {
					return 0, undef(IDLRMinus, c, "zero true negative rate (ratio infinite)")
				}
				return fnr / tnr, nil
			},
		},
		{
			ID:          IDPrevThreshold,
			Name:        "Prevalence threshold",
			Formula:     "(√(TPR·FPR) − FPR) / (TPR − FPR)",
			Lo:          0,
			Hi:          1,
			Orientation: LowerIsBetter,
			Reference:   "Balayla, 2020",
			compute: func(c Confusion) (float64, error) {
				tpr, ok1 := tprOf(c)
				tnr, ok2 := tnrOf(c)
				if !ok1 || !ok2 {
					return 0, undef(IDPrevThreshold, c, "needs both vulnerable and clean instances")
				}
				fpr := 1 - tnr
				if tpr == fpr {
					return 0, undef(IDPrevThreshold, c, "uninformative classifier (TPR == FPR)")
				}
				return (math.Sqrt(tpr*fpr) - fpr) / (tpr - fpr), nil
			},
		},
		{
			ID:          IDDetectedCount,
			Name:        "Detected vulnerabilities (absolute count)",
			Formula:     "TP",
			Lo:          0,
			Hi:          math.Inf(1),
			Orientation: HigherIsBetter,
			Reference:   "used informally in tool marketing; included to show why absolute counts fail as benchmark metrics",
			compute: func(c Confusion) (float64, error) {
				return float64(c.TP), nil
			},
		},
		NormalizedCost(10),
		{
			ID:          IDFalseAlarmCount,
			Name:        "False alarms (absolute count)",
			Formula:     "FP",
			Lo:          0,
			Hi:          math.Inf(1),
			Orientation: LowerIsBetter,
			Reference:   "included to show why absolute counts fail as benchmark metrics",
			compute: func(c Confusion) (float64, error) {
				return float64(c.FP), nil
			},
		},
	}
	return all
}

// Catalog returns a fresh copy of the full metric catalogue, ordered
// stably by construction (not alphabetically: the classic IR metrics come
// first, mirroring how the paper introduces them).
func Catalog() []Metric {
	return buildCatalog()
}

// catalogIndex resolves every ID and alias to its metric. It is built
// once: in catalogue order, a metric's ID and then its aliases, the first
// insert of a name winning, which is the order a linear scan would find.
var catalogIndex = func() map[string]Metric {
	idx := map[string]Metric{}
	for _, m := range buildCatalog() {
		for _, name := range append([]string{m.ID}, m.Aliases...) {
			if _, taken := idx[name]; !taken {
				idx[name] = m
			}
		}
	}
	return idx
}()

// ByID returns the metric with the given ID or alias. The boolean reports
// whether it was found.
func ByID(id string) (Metric, bool) {
	m, ok := catalogIndex[id]
	return m, ok
}

// MustByID returns the metric with the given ID and panics when it is
// missing. It is intended for package-level experiment definitions where a
// missing ID is a programming error.
func MustByID(id string) Metric {
	m, ok := ByID(id)
	if !ok {
		panic(fmt.Sprintf("metrics: unknown metric ID %q", id))
	}
	return m
}
