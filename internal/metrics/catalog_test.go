package metrics

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// reference matrix used across value tests:
//
//	TP=40 FP=10 FN=20 TN=130, total=200, prevalence=0.3
var refMatrix = Confusion{TP: 40, FP: 10, FN: 20, TN: 130}

func value(t *testing.T, id string, c Confusion) float64 {
	t.Helper()
	m := MustByID(id)
	v, err := m.Value(c)
	if err != nil {
		t.Fatalf("%s on %s: %v", id, c, err)
	}
	return v
}

func TestKnownMetricValues(t *testing.T) {
	cases := []struct {
		id   string
		want float64
	}{
		{IDRecall, 40.0 / 60.0},
		{IDPrecision, 40.0 / 50.0},
		{IDSpecificity, 130.0 / 140.0},
		{IDNPV, 130.0 / 150.0},
		{IDAccuracy, 170.0 / 200.0},
		{IDErrorRate, 30.0 / 200.0},
		{IDFPR, 10.0 / 140.0},
		{IDFNR, 20.0 / 60.0},
		{IDFDR, 10.0 / 50.0},
		{IDFOR, 20.0 / 150.0},
		{IDJaccard, 40.0 / 70.0},
		{IDPrevalence, 0.3},
		{IDDetectedCount, 40},
		{IDFalseAlarmCount, 10},
		{IDBalancedAccuracy, (40.0/60.0 + 130.0/140.0) / 2},
		{IDInformedness, 40.0/60.0 + 130.0/140.0 - 1},
		{IDMarkedness, 40.0/50.0 + 130.0/150.0 - 1},
		{IDGMean, math.Sqrt(40.0 / 60.0 * 130.0 / 140.0)},
		{IDFowlkesMallows, math.Sqrt(40.0 / 50.0 * 40.0 / 60.0)},
		{IDDOR, 40.0 * 130.0 / (10.0 * 20.0)},
		{IDLRPlus, (40.0 / 60.0) / (10.0 / 140.0)},
		{IDLRMinus, (20.0 / 60.0) / (130.0 / 140.0)},
	}
	for _, c := range cases {
		if got := value(t, c.id, refMatrix); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %.15g, want %.15g", c.id, got, c.want)
		}
	}
}

func TestF1HarmonicMean(t *testing.T) {
	p := value(t, IDPrecision, refMatrix)
	r := value(t, IDRecall, refMatrix)
	want := 2 * p * r / (p + r)
	if got := value(t, IDF1, refMatrix); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1 = %g, want harmonic mean %g", got, want)
	}
}

func TestFBetaOrdering(t *testing.T) {
	// On a matrix where recall < precision, F2 (recall-leaning) must be
	// below F1, and F0.5 (precision-leaning) above.
	f05 := value(t, IDF05, refMatrix)
	f1 := value(t, IDF1, refMatrix)
	f2 := value(t, IDF2, refMatrix)
	if !(f2 < f1 && f1 < f05) {
		t.Fatalf("expected F2 < F1 < F0.5 when recall < precision, got %g, %g, %g", f2, f1, f05)
	}
}

func TestFBetaPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FBeta(0) did not panic")
		}
	}()
	FBeta(0)
}

func TestMCCKnownValue(t *testing.T) {
	tp, fp, fn, tn := 40.0, 10.0, 20.0, 130.0
	want := (tp*tn - fp*fn) / math.Sqrt((tp+fp)*(tp+fn)*(tn+fp)*(tn+fn))
	if got := value(t, IDMCC, refMatrix); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MCC = %g, want %g", got, want)
	}
}

func TestKappaKnownValue(t *testing.T) {
	po := 170.0 / 200.0
	pe := (60.0*50.0 + 140.0*150.0) / (200.0 * 200.0)
	want := (po - pe) / (1 - pe)
	if got := value(t, IDKappa, refMatrix); math.Abs(got-want) > 1e-12 {
		t.Fatalf("kappa = %g, want %g", got, want)
	}
}

func TestPerfectClassifier(t *testing.T) {
	perfect := Confusion{TP: 30, FP: 0, FN: 0, TN: 70}
	for _, id := range []string{IDRecall, IDPrecision, IDSpecificity, IDNPV, IDAccuracy, IDF1, IDMCC, IDInformedness, IDMarkedness, IDBalancedAccuracy, IDGMean, IDJaccard, IDKappa} {
		if got := value(t, id, perfect); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s on perfect classifier = %g, want 1", id, got)
		}
	}
	for _, id := range []string{IDErrorRate, IDFPR, IDFNR, IDFDR, IDFOR} {
		if got := value(t, id, perfect); got != 0 {
			t.Errorf("%s on perfect classifier = %g, want 0", id, got)
		}
	}
}

func TestInvertedClassifier(t *testing.T) {
	// Everything wrong: chance-corrected metrics hit their minimum.
	inverted := Confusion{TP: 0, FP: 70, FN: 30, TN: 0}
	for _, id := range []string{IDMCC, IDInformedness, IDMarkedness} {
		if got := value(t, id, inverted); math.Abs(got+1) > 1e-12 {
			t.Errorf("%s on inverted classifier = %g, want -1", id, got)
		}
	}
}

func TestRandomClassifierChanceCorrection(t *testing.T) {
	// A classifier that flags exactly half of each class: TPR = FPR = 0.5.
	// Chance-corrected metrics must be ~0 regardless of prevalence.
	for _, prev := range []int{10, 50, 90} {
		pos := prev * 2
		neg := 200 - pos
		c := Confusion{TP: pos / 2, FN: pos / 2, FP: neg / 2, TN: neg / 2}
		for _, id := range []string{IDMCC, IDInformedness, IDMarkedness, IDKappa} {
			if got := value(t, id, c); math.Abs(got) > 1e-12 {
				t.Errorf("%s on random classifier (prev=%d%%) = %g, want 0", id, prev, got)
			}
		}
	}
}

func TestUndefinedCases(t *testing.T) {
	cases := []struct {
		id string
		c  Confusion
	}{
		{IDRecall, Confusion{TN: 5, FP: 5}},                      // no positives
		{IDPrecision, Confusion{FN: 5, TN: 5}},                   // nothing predicted
		{IDSpecificity, Confusion{TP: 5, FN: 5}},                 // no negatives
		{IDNPV, Confusion{TP: 5, FP: 5}},                         // everything predicted
		{IDAccuracy, Confusion{}},                                // empty
		{IDF1, Confusion{TN: 10}},                                // no positives, no predictions
		{IDMCC, Confusion{TP: 5, FN: 5}},                         // zero marginal
		{IDInformedness, Confusion{TP: 5, FN: 5}},                // one class only
		{IDMarkedness, Confusion{TP: 5, FP: 5}},                  // one prediction only
		{IDDOR, Confusion{TP: 5, TN: 5}},                         // no errors
		{IDLRPlus, Confusion{TP: 5, FN: 1, TN: 10}},              // FPR = 0
		{IDLRMinus, Confusion{TP: 5, FN: 1, FP: 10}},             // TNR = 0
		{IDPrevThreshold, Confusion{TP: 5, FN: 5, FP: 5, TN: 5}}, // TPR == FPR
		{IDKappa, Confusion{TP: 10}},                             // pe == 1
	}
	for _, tc := range cases {
		m := MustByID(tc.id)
		_, err := m.Value(tc.c)
		if err == nil {
			t.Errorf("%s on %s: expected undefined, got value", tc.id, tc.c)
			continue
		}
		if !IsUndefined(err) {
			t.Errorf("%s on %s: error %v is not an UndefinedError", tc.id, tc.c, err)
		}
	}
}

func TestValueOrFallback(t *testing.T) {
	m := MustByID(IDPrecision)
	v, err := m.ValueOr(Confusion{FN: 3, TN: 7}, 0.42)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.42 {
		t.Fatalf("fallback = %g", v)
	}
	v, err = m.ValueOr(refMatrix, 0.42)
	if err != nil || v != 0.8 {
		t.Fatalf("defined value = %g, %v", v, err)
	}
	if _, err := m.ValueOr(Confusion{TP: -1}, 0); err == nil {
		t.Fatal("invalid matrix must still error")
	}
}

func TestValueRejectsInvalidMatrix(t *testing.T) {
	m := MustByID(IDAccuracy)
	if _, err := m.Value(Confusion{TP: -1, TN: 5}); err == nil {
		t.Fatal("negative cell accepted")
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) < 25 {
		t.Fatalf("catalogue has %d metrics, want >= 25", len(cat))
	}
	seen := map[string]bool{}
	for _, m := range cat {
		if m.ID == "" || m.Name == "" || m.Formula == "" || m.Reference == "" {
			t.Errorf("metric %q missing metadata: %+v", m.ID, m)
		}
		if seen[m.ID] {
			t.Errorf("duplicate metric ID %q", m.ID)
		}
		seen[m.ID] = true
		if m.Orientation != HigherIsBetter && m.Orientation != LowerIsBetter {
			t.Errorf("metric %q has no orientation", m.ID)
		}
		if m.compute == nil {
			t.Errorf("metric %q has no compute function", m.ID)
		}
	}
}

func TestByIDAndAliases(t *testing.T) {
	if _, ok := ByID("no-such-metric"); ok {
		t.Fatal("unknown ID resolved")
	}
	m, ok := ByID("tpr") // alias of recall
	if !ok || m.ID != IDRecall {
		t.Fatalf("alias lookup failed: %+v, %v", m, ok)
	}
	m, ok = ByID(IDMCC)
	if !ok || m.ID != IDMCC {
		t.Fatal("direct lookup failed")
	}
}

// scanCatalog is the lookup ByID made before it had an index: a linear
// scan of a fresh catalogue, a metric's ID before its aliases.
func scanCatalog(name string) (Metric, bool) {
	for _, m := range Catalog() {
		if m.ID == name || slices.Contains(m.Aliases, name) {
			return m, true
		}
	}
	return Metric{}, false
}

func TestByIDIndexMatchesLinearScan(t *testing.T) {
	probes := []Confusion{refMatrix, {}, {TP: 5}, {FP: 3, TN: 9}, {FN: 4, TN: 1}, {TP: 1, FP: 1, FN: 1, TN: 1}}
	for _, m := range Catalog() {
		for _, name := range append([]string{m.ID}, m.Aliases...) {
			want, _ := scanCatalog(name)
			got, ok := ByID(name)
			if !ok {
				t.Fatalf("ByID(%q) not found", name)
			}
			if got.ID != want.ID || got.Name != want.Name || got.Formula != want.Formula ||
				!slices.Equal(got.Aliases, want.Aliases) || got.Orientation != want.Orientation ||
				got.ChanceCorrected != want.ChanceCorrected || got.Reference != want.Reference ||
				got.Lo != want.Lo || got.Hi != want.Hi {
				t.Fatalf("ByID(%q) = %+v, linear scan gives %+v", name, got, want)
			}
			for _, c := range probes {
				gv, gerr := got.Value(c)
				wv, werr := want.Value(c)
				if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("ByID(%q) on %s = %v, %v; linear scan gives %v, %v", name, c, gv, gerr, wv, werr)
				}
			}
		}
	}
}

func TestMustByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByID on unknown ID did not panic")
		}
	}()
	MustByID("nope")
}

func TestOrientationHelpers(t *testing.T) {
	rec := MustByID(IDRecall)
	if !rec.Better(0.9, 0.5) || rec.Better(0.5, 0.9) {
		t.Fatal("higher-is-better Better() wrong")
	}
	fpr := MustByID(IDFPR)
	if !fpr.Better(0.1, 0.5) || fpr.Better(0.5, 0.1) {
		t.Fatal("lower-is-better Better() wrong")
	}
	if rec.Goodness(0.7) != 0.7 || fpr.Goodness(0.7) != -0.7 {
		t.Fatal("Goodness wrong")
	}
	if HigherIsBetter.String() != "higher-is-better" || LowerIsBetter.String() != "lower-is-better" {
		t.Fatal("Orientation String wrong")
	}
	if Orientation(9).String() == "" {
		t.Fatal("unknown orientation should still render")
	}
}

func TestBounded(t *testing.T) {
	recall, dor := MustByID(IDRecall), MustByID(IDDOR)
	if !recall.Bounded() {
		t.Fatal("recall should be bounded")
	}
	if dor.Bounded() {
		t.Fatal("DOR should be unbounded")
	}
}

func TestUndefinedErrorMessage(t *testing.T) {
	err := &UndefinedError{Metric: "precision", On: Confusion{FN: 1}, Reason: "nothing predicted"}
	msg := err.Error()
	for _, want := range []string{"precision", "FN=1", "nothing predicted"} {
		if !contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: every bounded metric stays within its declared range on every
// valid matrix where it is defined. This is the programmatic version of the
// paper's "boundedness" characteristic, asserted over random matrices.
func TestBoundednessProperty(t *testing.T) {
	cat := Catalog()
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{int(tp), int(fp), int(fn), int(tn)}
		for _, m := range cat {
			v, err := m.Value(c)
			if err != nil {
				if !IsUndefined(err) {
					return false
				}
				continue
			}
			if math.IsNaN(v) || v < m.Lo-1e-9 || v > m.Hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: scale invariance — multiplying all cells by a constant never
// changes any ratio-based metric. (Absolute-count metrics are excluded:
// their scale-variance is exactly why the paper rejects them.)
func TestScaleInvarianceProperty(t *testing.T) {
	cat := Catalog()
	f := func(tp, fp, fn, tn uint8, kRaw uint8) bool {
		k := 2 + int(kRaw%9)
		c := Confusion{int(tp), int(fp), int(fn), int(tn)}
		scaled, err := c.Scale(k)
		if err != nil {
			return false
		}
		for _, m := range cat {
			if m.ID == IDDetectedCount || m.ID == IDFalseAlarmCount {
				continue
			}
			v1, err1 := m.Value(c)
			v2, err2 := m.Value(scaled)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 != nil {
				continue
			}
			if math.Abs(v1-v2) > 1e-9*(1+math.Abs(v1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: informedness = TPR + TNR − 1 and markedness = PPV + NPV − 1
// are consistent with their constituent metrics, and MCC² ≈
// informedness × markedness (Powers' identity) whenever all are defined.
func TestPowersIdentityProperty(t *testing.T) {
	mcc := MustByID(IDMCC)
	inf := MustByID(IDInformedness)
	mark := MustByID(IDMarkedness)
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{int(tp) + 1, int(fp) + 1, int(fn) + 1, int(tn) + 1} // all cells positive => all defined
		vm, err1 := mcc.Value(c)
		vi, err2 := inf.Value(c)
		vk, err3 := mark.Value(c)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(vm*vm-vi*vk) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedCostKnownValues(t *testing.T) {
	cost := MustByID(IDCost10)
	// refMatrix: FN=20, FP=10, P=60, N=140 -> (200+10)/(600+140).
	want := 210.0 / 740.0
	if got := value(t, IDCost10, refMatrix); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost-10 = %g, want %g", got, want)
	}
	if cost.Orientation != LowerIsBetter {
		t.Fatal("cost metric must be lower-is-better")
	}
	// Perfect classifier incurs zero cost; inverted classifier full cost.
	if got := value(t, IDCost10, Confusion{TP: 30, TN: 70}); got != 0 {
		t.Fatalf("perfect cost = %g", got)
	}
	if got := value(t, IDCost10, Confusion{FN: 30, FP: 70}); got != 1 {
		t.Fatalf("worst cost = %g", got)
	}
}

func TestNormalizedCostRatioOneIsErrorRate(t *testing.T) {
	c1 := NormalizedCost(1)
	er := MustByID(IDErrorRate)
	for _, c := range []Confusion{refMatrix, {TP: 1, FP: 2, FN: 3, TN: 4}, {TP: 9, TN: 1}} {
		v1, err1 := c1.Value(c)
		v2, err2 := er.Value(c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(v1-v2) > 1e-12 {
			t.Fatalf("cost-1 (%g) != error rate (%g) on %s", v1, v2, c)
		}
	}
}

func TestNormalizedCostWeighsMissesMore(t *testing.T) {
	base := Confusion{TP: 50, FP: 10, FN: 10, TN: 130}
	oneMoreMiss := Confusion{TP: 49, FP: 10, FN: 11, TN: 130}
	oneMoreAlarm := Confusion{TP: 50, FP: 11, FN: 10, TN: 129}
	cost := MustByID(IDCost10)
	b := value(t, IDCost10, base)
	m := value(t, IDCost10, oneMoreMiss)
	a := value(t, IDCost10, oneMoreAlarm)
	if !(m-b > 10*(a-b)-1e-12) {
		t.Fatalf("miss increment (%g) should cost ~10x an alarm increment (%g)", m-b, a-b)
	}
	_ = cost
}

func TestNormalizedCostPanicsOnBadRatio(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NormalizedCost(0) did not panic")
		}
	}()
	NormalizedCost(0)
}
