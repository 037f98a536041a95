package metrics

import (
	"errors"
	"sort"
)

// ScoredInstance is one test-case outcome from a tool that produces
// confidence scores: the ground-truth label and the tool's score (higher
// means "more likely vulnerable"). Threshold-free metrics (ROC AUC, average
// precision) are computed over slices of these.
type ScoredInstance struct {
	Score    float64
	Positive bool
}

// ROCPoint is one point of a ROC curve.
type ROCPoint struct {
	FPR float64
	TPR float64
}

// PRPoint is one point of a precision-recall curve.
type PRPoint struct {
	Recall    float64
	Precision float64
}

// ErrNoBothClasses is returned when a curve needs both positive and
// negative instances but the sample contains only one class.
var ErrNoBothClasses = errors.New("metrics: curve requires both positive and negative instances")

// sortByScoreDesc returns a copy of xs sorted by descending score with a
// deterministic tie-break on the label (positives first within a tie is
// avoided; ties are grouped and handled jointly by the curve builders).
func sortByScoreDesc(xs []ScoredInstance) []ScoredInstance {
	out := append([]ScoredInstance(nil), xs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// ROC computes the ROC curve of the scored sample. Instances with equal
// scores are processed as a block, producing the standard "diagonal"
// segment for ties. The returned curve starts at (0,0) and ends at (1,1).
func ROC(xs []ScoredInstance) ([]ROCPoint, error) {
	var pos, neg int
	for _, x := range xs {
		if x.Positive {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrNoBothClasses
	}
	sorted := sortByScoreDesc(xs)
	points := []ROCPoint{{FPR: 0, TPR: 0}}
	var tp, fp int
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Score == sorted[i].Score {
			if sorted[j].Positive {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, ROCPoint{
			FPR: float64(fp) / float64(neg),
			TPR: float64(tp) / float64(pos),
		})
		i = j
	}
	return points, nil
}

// AUC computes the area under the ROC curve via the trapezoidal rule. It
// equals the probability that a random vulnerable instance is scored above
// a random clean one (with ties counted half).
func AUC(xs []ScoredInstance) (float64, error) {
	curve, err := ROC(xs)
	if err != nil {
		return 0, err
	}
	var area float64
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area, nil
}

// PRCurve computes the precision-recall curve of the scored sample,
// processing score ties as blocks. The curve is returned in increasing
// recall order.
func PRCurve(xs []ScoredInstance) ([]PRPoint, error) {
	var pos int
	for _, x := range xs {
		if x.Positive {
			pos++
		}
	}
	if pos == 0 || pos == len(xs) {
		return nil, ErrNoBothClasses
	}
	sorted := sortByScoreDesc(xs)
	var points []PRPoint
	var tp, fp int
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Score == sorted[i].Score {
			if sorted[j].Positive {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, PRPoint{
			Recall:    float64(tp) / float64(pos),
			Precision: float64(tp) / float64(tp+fp),
		})
		i = j
	}
	return points, nil
}

// AveragePrecision computes the area under the precision-recall curve using
// the step-wise interpolation standard in IR evaluation: each recall
// increment contributes its precision.
func AveragePrecision(xs []ScoredInstance) (float64, error) {
	curve, err := PRCurve(xs)
	if err != nil {
		return 0, err
	}
	var ap float64
	prevRecall := 0.0
	for _, p := range curve {
		ap += (p.Recall - prevRecall) * p.Precision
		prevRecall = p.Recall
	}
	return ap, nil
}
