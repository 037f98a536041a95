package stats

import (
	"math"
	"sort"
	"testing"
)

// TestSelectKthMatchesSort cross-checks quickselect against a full sort
// for every rank on random, duplicate-heavy and adversarial inputs.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := NewRNG(11)
	cases := [][]float64{
		{0},
		{2, 1},
		{5, 5, 5, 5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8}, // already sorted
		{8, 7, 6, 5, 4, 3, 2, 1}, // reverse sorted
	}
	for c := 0; c < 20; c++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			// Coarse values force many duplicates.
			xs[i] = float64(rng.Intn(10))
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for k := range xs {
			work := append([]float64(nil), xs...)
			got := selectKth(work, k)
			if got != want[k] {
				t.Fatalf("case %d: selectKth(k=%d) = %g, want %g", ci, k, got, want[k])
			}
			// Partition invariant: prefix <= xs[k] <= suffix.
			for i := 0; i < k; i++ {
				if work[i] > got {
					t.Fatalf("case %d k=%d: prefix element %g > selected %g", ci, k, work[i], got)
				}
			}
			for i := k + 1; i < len(work); i++ {
				if work[i] < got {
					t.Fatalf("case %d k=%d: suffix element %g < selected %g", ci, k, work[i], got)
				}
			}
		}
	}
}

// referenceQuantile is the interpolation the pre-quickselect
// implementation computed on a sorted copy.
func referenceQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := q * float64(len(s)-1)
	loIdx := int(rank)
	if loIdx >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(loIdx)
	return s[loIdx]*(1-frac) + s[loIdx+1]*frac
}

func TestSelectQuantileMatchesSortedInterpolation(t *testing.T) {
	rng := NewRNG(12)
	for c := 0; c < 50; c++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for _, q := range []float64{0, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 1} {
			want := referenceQuantile(xs, q)
			got := selectQuantile(append([]float64(nil), xs...), q)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d q=%g: selectQuantile = %g, reference = %g", n, q, got, want)
			}
		}
	}
}

// TestSelectQuantileKnownValues pins the interpolation on hand-computed
// samples: rank q·(n-1) between the two straddling order statistics.
func TestSelectQuantileKnownValues(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"min", []float64{15, 20, 35, 40, 50}, 0, 15},
		{"max", []float64{15, 20, 35, 40, 50}, 1, 50},
		{"median", []float64{15, 20, 35, 40, 50}, 0.5, 35},
		{"lower-quartile", []float64{15, 20, 35, 40, 50}, 0.25, 20},
		{"upper-quartile", []float64{15, 20, 35, 40, 50}, 0.75, 40},
		{"interpolated", []float64{15, 20, 35, 40, 50}, 0.4, 29}, // rank 1.6: 20 + 0.6·15
		{"odd-median-unsorted", []float64{1, 3, 2}, 0.5, 2},
		{"even-median", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"single", []float64{7}, 0.9, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := selectQuantile(append([]float64(nil), c.xs...), c.q)
			if math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("selectQuantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
			}
		})
	}
}
