package ranking

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/dsn2015/vdbench/internal/stats"
)

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{4, 3, 2, 1}
	tau, err := KendallTau(a, a)
	if err != nil || tau != 1 {
		t.Fatalf("tau(a,a) = %g, %v", tau, err)
	}
	rev := []float64{1, 2, 3, 4}
	tau, err = KendallTau(a, rev)
	if err != nil || tau != -1 {
		t.Fatalf("tau(a,-a) = %g, %v", tau, err)
	}
}

func TestKendallTauKnown(t *testing.T) {
	// Classic small example: one discordant pair of six.
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 4, 3}
	tau, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := (5.0 - 1.0) / 6.0
	if math.Abs(tau-want) > 1e-12 {
		t.Fatalf("tau = %g, want %g", tau, want)
	}
}

func TestKendallTauTies(t *testing.T) {
	a := []float64{1, 1, 2}
	b := []float64{1, 2, 3}
	tau, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// pairs: (0,1) tied in a; (0,2),(1,2) concordant. n0=3, tiesA=1.
	want := 2.0 / math.Sqrt(3*2)
	if math.Abs(tau-want) > 1e-12 {
		t.Fatalf("tau-b = %g, want %g", tau, want)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatal("length mismatch accepted")
	}
	if _, err := KendallTau([]float64{1}, []float64{1}); !errors.Is(err, ErrTooShort) {
		t.Fatal("single item accepted")
	}
	if _, err := KendallTau([]float64{5, 5, 5}, []float64{1, 2, 3}); err == nil {
		t.Fatal("fully tied sample should be undefined")
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 30, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	// Average ranks on ties.
	got = Ranks([]float64{5, 5, 1})
	want = []float64{1.5, 1.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tied Ranks = %v, want %v", got, want)
		}
	}
}

// TestPearsonOfRanksIsSpearman pins the rank correlation E17 computes:
// Pearson's r on Ranks is Spearman's rho, 1 - 6·Σd²/(n(n²-1)) without
// ties.
func TestPearsonOfRanksIsSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		name string
		b    []float64
		want float64
	}{
		{"monotone", []float64{2, 4, 6, 8, 10}, 1},
		{"monotone-nonlinear", []float64{1, 8, 27, 64, 125}, 1},
		{"reversed", []float64{5, 4, 3, 2, 1}, -1},
		{"two-swaps", []float64{2, 1, 4, 3, 5}, 0.8}, // Σd² = 4
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rho, err := stats.Pearson(Ranks(a), Ranks(c.b))
			if err != nil || math.Abs(rho-c.want) > 1e-12 {
				t.Fatalf("rho = %g, %v; want %g", rho, err, c.want)
			}
		})
	}
	t.Run("constant", func(t *testing.T) {
		if _, err := stats.Pearson(Ranks(a), Ranks([]float64{1, 1, 1, 1, 1})); err == nil {
			t.Fatal("constant sample should be undefined")
		}
	})
}

func TestTopK(t *testing.T) {
	scores := []float64{0.2, 0.9, 0.5, 0.9}
	got := TopK(scores, 2)
	// Ties broken by lower index: items 1 and 3 both 0.9.
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v", got)
	}
	if TopK(scores, 0) != nil {
		t.Fatal("k=0 should be empty")
	}
	if len(TopK(scores, 99)) != 4 {
		t.Fatal("k>n should clamp")
	}
}

func TestTopKOverlap(t *testing.T) {
	a := []float64{4, 3, 2, 1}
	b := []float64{4, 3, 1, 2}
	ov, err := TopKOverlap(a, b, 2)
	if err != nil || ov != 1 {
		t.Fatalf("overlap top2 = %g, %v", ov, err)
	}
	c := []float64{1, 2, 3, 4}
	ov, err = TopKOverlap(a, c, 2)
	if err != nil || ov != 0 {
		t.Fatalf("overlap disjoint = %g, %v", ov, err)
	}
	if _, err := TopKOverlap(a, b, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TopKOverlap(a, []float64{1}, 1); !errors.Is(err, ErrLengthMismatch) {
		t.Fatal("length mismatch accepted")
	}
}

// Property: tau and rho are symmetric and bounded on random score vectors.
func TestCorrelationProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		tau1, err1 := KendallTau(a, b)
		tau2, err2 := KendallTau(b, a)
		if err1 != nil || err2 != nil {
			return true // degenerate tie case
		}
		if math.Abs(tau1-tau2) > 1e-12 || tau1 < -1-1e-12 || tau1 > 1+1e-12 {
			return false
		}
		rho1, err1 := stats.Pearson(Ranks(a), Ranks(b))
		rho2, err2 := stats.Pearson(Ranks(b), Ranks(a))
		if err1 != nil || err2 != nil {
			return true
		}
		return math.Abs(rho1-rho2) < 1e-9 && rho1 >= -1-1e-9 && rho1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a strictly monotone transform of the scores leaves tau
// unchanged (rank statistics only see order).
func TestTauMonotoneInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(15)
		a := make([]float64, n)
		b := make([]float64, n)
		aT := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
			aT[i] = math.Exp(2*a[i]) + 1 // strictly increasing transform
		}
		t1, err1 := KendallTau(a, b)
		t2, err2 := KendallTau(aT, b)
		if err1 != nil || err2 != nil {
			return true
		}
		return math.Abs(t1-t2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
