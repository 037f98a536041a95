package stats

import (
	"fmt"
	"math"
	"testing"
)

// chiSquareAlpha is the significance level of the goodness-of-fit tests
// below. Every test runs on a fixed seed, so a pass is reproducible; the
// level only sets how far a wrong sampler must be off to fail.
const chiSquareAlpha = 1e-4

// gammaQ is the regularized upper incomplete gamma function Q(a, x): a
// series for x < a+1 and a continued fraction (modified Lentz) otherwise.
func gammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for k := 1; k < 10000; k++ {
			term *= x / (a + float64(k))
			sum += term
			if term < sum*1e-16 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lg)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for k := 1; k < 10000; k++ {
		an := -float64(k) * (float64(k) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// chiSquareTest compares observed counts over cells with the exact cell
// probabilities. Adjacent cells are pooled, in order, until each bin
// expects at least 5 draws; a short tail joins the last bin. It returns
// the statistic, its degrees of freedom and the upper-tail p-value.
func chiSquareTest(observed []int, probs []float64) (stat float64, df int, p float64) {
	total := 0
	for _, o := range observed {
		total += o
	}
	var obs, exp []float64
	var o, e float64
	for i := range probs {
		o += float64(observed[i])
		e += probs[i] * float64(total)
		if e >= 5 {
			obs, exp = append(obs, o), append(exp, e)
			o, e = 0, 0
		}
	}
	if len(exp) == 0 {
		return 0, 0, 1
	}
	obs[len(obs)-1] += o
	exp[len(exp)-1] += e
	for i := range exp {
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
	}
	df = len(exp) - 1
	if df == 0 {
		return stat, 0, 1
	}
	return stat, df, gammaQ(float64(df)/2, stat/2)
}

// binomialPMF is the exact pmf of Binomial(n, p) at every k in [0, n],
// each term computed on its own from log-gamma.
func binomialPMF(n int, p float64) []float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	pmf := make([]float64, n+1)
	for k := range pmf {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgR, _ := math.Lgamma(float64(n - k + 1))
		pmf[k] = math.Exp(lgN - lgK - lgR + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	return pmf
}

func TestChiSquareHelpers(t *testing.T) {
	// Q(1, x) = exp(-x), so 2 df have the critical point -2·ln(1e-4);
	// the others are tabled 1e-4 critical points.
	if got := gammaQ(1, 2); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Fatalf("Q(1, 2) = %v", got)
	}
	for _, c := range []struct {
		df   int
		crit float64
	}{{1, 15.137}, {2, -2 * math.Log(1e-4)}, {5, 25.745}, {10, 35.564}} {
		if got := gammaQ(float64(c.df)/2, c.crit/2); math.Abs(got-1e-4) > 2e-6 {
			t.Fatalf("df %d: upper tail at %v = %v, want 1e-4", c.df, c.crit, got)
		}
	}
}

// TestBinomialMatchesPMF runs a chi-square goodness-of-fit test of
// Binomial against the exact pmf, from the smallest table to sizes well
// past E7's 561 sinks, on both sides of p = 0.5.
func TestBinomialMatchesPMF(t *testing.T) {
	const draws = 20000
	cases := []struct {
		n int
		p float64
	}{{1, 0.3}, {20, 0.05}, {561, 0.33}, {561, 0.97}, {2000, 0.35}, {100000, 1e-4}}
	for i, c := range cases {
		t.Run(fmt.Sprintf("n=%d,p=%g", c.n, c.p), func(t *testing.T) {
			rng := NewRNG(uint64(100 + i))
			observed := make([]int, c.n+1)
			for range draws {
				observed[rng.Binomial(c.n, c.p)]++
			}
			stat, df, pv := chiSquareTest(observed, binomialPMF(c.n, c.p))
			if df == 0 || pv < chiSquareAlpha {
				t.Fatalf("chi2 = %.2f on %d df, p = %.3g", stat, df, pv)
			}
		})
	}
}

func TestBinomialEdges(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.5, 0}, {-3, 0.5, 0}, {10, 0, 0}, {10, -1, 0}, {10, math.NaN(), 0},
		{10, 1, 10}, {10, 2, 10}, {0, 1, 0},
	} {
		r := NewRNG(3)
		if got := r.Binomial(c.n, c.p); got != c.want {
			t.Fatalf("Binomial(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if r.Uint64() != NewRNG(3).Uint64() {
			t.Fatalf("Binomial(%d, %v) drew from the stream", c.n, c.p)
		}
	}
}

// TestBinomialDrawsOnce pins the sampler's cost on the stream: one
// Uint64 per non-degenerate call, whatever the value drawn.
func TestBinomialDrawsOnce(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{1, 0.5}, {7, 0.01}, {561, 0.33}, {561, 0.97}, {100000, 1e-4}, {100000, 0.5}} {
		got, want := NewRNG(5), NewRNG(5)
		for range 50 {
			if k := got.Binomial(c.n, c.p); k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, k)
			}
			want.Uint64()
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("Binomial(%d, %v) did not draw exactly one Uint64 per call", c.n, c.p)
		}
	}
}

func TestResampleKeepsTotal(t *testing.T) {
	base := [16]int{0, 3, 0, 0, 9, 1, 0, 0, 0, 0, 0, 40, 0, 0, 0, 0}
	rng := NewRNG(8)
	var out [16]int
	for range 500 {
		out = [16]int{99} // Resample overwrites every code
		rng.Resample(&base, &out)
		total := 0
		for c, k := range out {
			if base[c] == 0 && k != 0 {
				t.Fatalf("zero-count code %d resampled to %d", c, k)
			}
			if k < 0 {
				t.Fatalf("negative count %d at code %d", k, c)
			}
			total += k
		}
		if total != 53 {
			t.Fatalf("resample total %d, want 53: %v", total, out)
		}
	}
}

func TestResampleSingleValuedDrawsNothing(t *testing.T) {
	for _, base := range []*[16]int{{}, {5: 12}, {15: 1}} {
		r := NewRNG(4)
		var out [16]int
		r.Resample(base, &out)
		if out != *base {
			t.Fatalf("resample of %v = %v", base, out)
		}
		if r.Uint64() != NewRNG(4).Uint64() {
			t.Fatalf("resample of %v drew from the stream", base)
		}
	}
}

// TestResampleMatchesMultinomial runs a chi-square test of Resample's
// joint counts against the exact Multinomial(6; 1/6, 2/6, 3/6) pmf over
// all 28 outcomes, on a table whose codes are not adjacent.
func TestResampleMatchesMultinomial(t *testing.T) {
	const draws = 20000
	base := [16]int{2: 1, 7: 2, 13: 3}
	fact := []float64{1, 1, 2, 6, 24, 120, 720}
	type cell struct{ a, b int }
	var cells []cell
	var probs []float64
	index := map[cell]int{}
	for a := 0; a <= 6; a++ {
		for b := 0; a+b <= 6; b++ {
			c := 6 - a - b
			index[cell{a, b}] = len(cells)
			cells = append(cells, cell{a, b})
			probs = append(probs, fact[6]/(fact[a]*fact[b]*fact[c])*
				math.Pow(1.0/6, float64(a))*math.Pow(2.0/6, float64(b))*math.Pow(3.0/6, float64(c)))
		}
	}
	observed := make([]int, len(cells))
	rng := NewRNG(21)
	var out [16]int
	for range draws {
		rng.Resample(&base, &out)
		observed[index[cell{out[2], out[7]}]]++
	}
	stat, df, pv := chiSquareTest(observed, probs)
	if df < 10 || pv < chiSquareAlpha {
		t.Fatalf("chi2 = %.2f on %d df, p = %.3g", stat, df, pv)
	}
}
