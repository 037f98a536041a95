package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSum(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{1}, 1},
		{[]float64{1, 2, 3}, 6},
		{[]float64{-1, 1, -1, 1}, 0},
	}
	for _, c := range cases {
		if got := Sum(c.xs); got != c.want {
			t.Errorf("Sum(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1 followed by many tiny values: naive summation loses them.
	xs := make([]float64, 1_000_001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("compensated Sum = %.18f, want %.18f", got, want)
	}
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean(nil) error = %v, want ErrEmpty", err)
	}
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Fatalf("Mean = %g, %v; want 4, nil", m, err)
	}
}

func TestVariance(t *testing.T) {
	if _, err := Variance(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("Variance(nil) should fail")
	}
	v, err := Variance([]float64{5})
	if err != nil || v != 0 {
		t.Fatalf("Variance(single) = %g, %v; want 0, nil", v, err)
	}
	v, _ = Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g, want %g", v, 32.0/7.0)
	}
}

func TestStdDevMatchesVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	v, _ := Variance(xs)
	sd, _ := StdDev(xs)
	if !almostEqual(sd*sd, v, 1e-12) {
		t.Fatalf("StdDev^2 = %g, Variance = %g", sd*sd, v)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%g, %g, %v)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("MinMax(nil) should fail")
	}
}

// Property: for any non-empty sample, min <= q25 <= median <= q75 <= max
// and the mean lies within [min, max].
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Exclude magnitudes that overflow the running sum, which makes
			// the mean infinite and the invariant vacuous.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		mean, err := Mean(xs)
		if err != nil {
			return false
		}
		lo, hi, err := MinMax(xs)
		if err != nil {
			return false
		}
		q := func(p float64) float64 { return selectQuantile(append([]float64(nil), xs...), p) }
		q25, med, q75 := q(0.25), q(0.5), q(0.75)
		ordered := lo <= q25 && q25 <= med && med <= q75 && q75 <= hi
		return ordered && mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant.
func TestVarianceTranslationProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw int8) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		shift := float64(shiftRaw)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			shifted[i] = xs[i] + shift
		}
		v1, _ := Variance(xs)
		v2, _ := Variance(shifted)
		return almostEqual(v1, v2, 1e-6*(1+math.Abs(v1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
