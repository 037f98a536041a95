package metrics

import (
	"errors"
	"math"
	"testing"
)

func scored(pairs ...struct {
	s float64
	p bool
}) []ScoredInstance {
	out := make([]ScoredInstance, len(pairs))
	for i, x := range pairs {
		out[i] = ScoredInstance{Score: x.s, Positive: x.p}
	}
	return out
}

func sp(s float64, p bool) struct {
	s float64
	p bool
} {
	return struct {
		s float64
		p bool
	}{s, p}
}

func TestAUCPerfectSeparation(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.8, true), sp(0.3, false), sp(0.1, false))
	auc, err := AUC(xs)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUC = %g, want 1", auc)
	}
}

func TestAUCInverted(t *testing.T) {
	xs := scored(sp(0.9, false), sp(0.8, false), sp(0.3, true), sp(0.1, true))
	auc, err := AUC(xs)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("AUC = %g, want 0", auc)
	}
}

func TestAUCAllTiedIsHalf(t *testing.T) {
	xs := scored(sp(0.5, true), sp(0.5, false), sp(0.5, true), sp(0.5, false))
	auc, err := AUC(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("AUC with all ties = %g, want 0.5", auc)
	}
}

func TestAUCMatchesMannWhitney(t *testing.T) {
	xs := scored(
		sp(0.9, true), sp(0.7, false), sp(0.6, true),
		sp(0.5, false), sp(0.4, true), sp(0.2, false),
	)
	// Pairs (pos, neg) with pos>neg: (0.9 beats all 3), (0.6 beats 0.5, 0.2),
	// (0.4 beats 0.2) = 6 of 9.
	want := 6.0 / 9.0
	auc, err := AUC(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-want) > 1e-12 {
		t.Fatalf("AUC = %g, want %g", auc, want)
	}
}

func TestROCEndpoints(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.5, false), sp(0.3, true), sp(0.1, false))
	curve, err := ROC(xs)
	if err != nil {
		t.Fatal(err)
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Fatalf("curve starts at %+v", first)
	}
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve ends at %+v", last)
	}
	// Monotone non-decreasing in both coordinates.
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("curve not monotone at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

func TestROCSingleClassFails(t *testing.T) {
	onlyPos := scored(sp(0.9, true), sp(0.1, true))
	if _, err := ROC(onlyPos); !errors.Is(err, ErrNoBothClasses) {
		t.Fatal("single-class ROC should fail")
	}
	if _, err := AUC(nil); !errors.Is(err, ErrNoBothClasses) {
		t.Fatal("empty AUC should fail")
	}
}

func TestROCDoesNotMutateInput(t *testing.T) {
	xs := scored(sp(0.1, false), sp(0.9, true))
	if _, err := ROC(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0].Score != 0.1 || xs[1].Score != 0.9 {
		t.Fatal("ROC reordered caller slice")
	}
}

func TestPRCurveValues(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.8, false), sp(0.7, true), sp(0.1, false))
	curve, err := PRCurve(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := []PRPoint{
		{Recall: 0.5, Precision: 1},
		{Recall: 0.5, Precision: 0.5},
		{Recall: 1, Precision: 2.0 / 3.0},
		{Recall: 1, Precision: 0.5},
	}
	if len(curve) != len(want) {
		t.Fatalf("curve length %d, want %d: %+v", len(curve), len(want), curve)
	}
	for i := range want {
		if math.Abs(curve[i].Recall-want[i].Recall) > 1e-12 ||
			math.Abs(curve[i].Precision-want[i].Precision) > 1e-12 {
			t.Fatalf("point %d = %+v, want %+v", i, curve[i], want[i])
		}
	}
}

func TestPRCurveSingleClassFails(t *testing.T) {
	if _, err := PRCurve(scored(sp(1, true))); !errors.Is(err, ErrNoBothClasses) {
		t.Fatal("all-positive PR should fail")
	}
	if _, err := PRCurve(scored(sp(1, false))); !errors.Is(err, ErrNoBothClasses) {
		t.Fatal("all-negative PR should fail")
	}
}

func TestAveragePrecisionPerfect(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.8, true), sp(0.3, false))
	ap, err := AveragePrecision(xs)
	if err != nil {
		t.Fatal(err)
	}
	if ap != 1 {
		t.Fatalf("AP = %g, want 1", ap)
	}
}

func TestAveragePrecisionKnown(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.8, false), sp(0.7, true), sp(0.1, false))
	// Recall steps: 0→0.5 at precision 1, then 0.5 (precision drops, no recall
	// gain contributes 0), then 0.5→1 at precision 2/3.
	want := 0.5*1 + 0.5*(2.0/3.0)
	ap, err := AveragePrecision(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ap-want) > 1e-12 {
		t.Fatalf("AP = %g, want %g", ap, want)
	}
}

// TestROCPointsFlagAtOrAboveThreshold checks each ROC point after the
// origin against the confusion matrix at one threshold: the k-th point
// flags every instance scored at or above the k-th highest distinct
// score, ties included.
func TestROCPointsFlagAtOrAboveThreshold(t *testing.T) {
	xs := scored(sp(0.9, true), sp(0.6, false), sp(0.4, true), sp(0.6, true), sp(0.2, false), sp(0.4, false))
	curve, err := ROC(xs)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{0.9, 0.6, 0.4, 0.2}
	if len(curve) != len(thresholds)+1 {
		t.Fatalf("curve has %d points, want %d", len(curve), len(thresholds)+1)
	}
	for k, th := range thresholds {
		var c Confusion
		for _, x := range xs {
			switch flagged := x.Score >= th; {
			case flagged && x.Positive:
				c.TP++
			case flagged:
				c.FP++
			case x.Positive:
				c.FN++
			default:
				c.TN++
			}
		}
		want := ROCPoint{
			FPR: float64(c.FP) / float64(c.FP+c.TN),
			TPR: float64(c.TP) / float64(c.TP+c.FN),
		}
		if curve[k+1] != want {
			t.Fatalf("point at threshold %g = %+v, want %+v (confusion %+v)", th, curve[k+1], want, c)
		}
	}
}
