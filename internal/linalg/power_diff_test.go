package linalg_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/dsn2015/vdbench/internal/linalg"
	"github.com/dsn2015/vdbench/internal/mcda"
	"github.com/dsn2015/vdbench/internal/stats"
)

// twoMatvecPowerIteration is the power iteration as it ran before each
// iteration's eigenvalue product was carried into the next iteration: two
// matrix-vector products per iteration, the second (M·next) used only for
// the eigenvalue estimate, which it computed on every iteration. It is
// the reference PowerWorkspace.Run must reproduce bit for bit.
func twoMatvecPowerIteration(m *linalg.Matrix, maxIter int, tol float64) (linalg.PowerIterationResult, error) {
	n := m.Rows()
	mulVecInto := func(out, v []float64) {
		for i := range out {
			var s float64
			for j := range v {
				s += m.At(i, j) * v[j]
			}
			out[i] = s
		}
	}
	v, next, av := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	for iter := 1; iter <= maxIter; iter++ {
		mulVecInto(next, v)
		var sum float64
		for _, x := range next {
			sum += x
		}
		if sum == 0 {
			return linalg.PowerIterationResult{}, errors.New("linalg: power iteration collapsed to zero vector")
		}
		for i := range next {
			next[i] /= sum
		}
		mulVecInto(av, next)
		var est float64
		for i := range next {
			est += av[i] / next[i]
		}
		est /= float64(n)
		var delta float64
		for i := range v {
			delta += math.Abs(next[i] - v[i])
		}
		v, next = next, v
		if delta < tol {
			return linalg.PowerIterationResult{Eigenvalue: est, Eigenvector: v, Iterations: iter}, nil
		}
	}
	return linalg.PowerIterationResult{}, fmt.Errorf("linalg: power iteration did not converge in %d iterations", maxIter)
}

// e10Sigmas mirrors the judgment-noise axis of experiment E10.
var e10Sigmas = []float64{0.05, 0.1, 0.2, 0.3, 0.5}

// samePowerResult compares a result with the reference's using == on the
// eigenvalue, every eigenvector element and the iteration count.
func samePowerResult(t *testing.T, what string, m *linalg.Matrix, w *linalg.PowerWorkspace, maxIter int) {
	t.Helper()
	want, wantErr := twoMatvecPowerIteration(m, maxIter, 1e-12)
	got, gotErr := w.Run(m, maxIter, 1e-12)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Eigenvalue != want.Eigenvalue || got.Iterations != want.Iterations || len(got.Eigenvector) != len(want.Eigenvector) {
		t.Fatalf("%s: eigenvalue %v after %d iterations, want %v after %d", what, got.Eigenvalue, got.Iterations, want.Eigenvalue, want.Iterations)
	}
	for i := range want.Eigenvector {
		if got.Eigenvector[i] != want.Eigenvector[i] {
			t.Fatalf("%s: eigenvector[%d] = %v, want %v", what, i, got.Eigenvector[i], want.Eigenvector[i])
		}
	}
}

// matrixOf copies a pairwise comparison matrix into a linalg matrix.
func matrixOf(t *testing.T, pw *mcda.Pairwise) *linalg.Matrix {
	t.Helper()
	m, err := linalg.New(pw.N(), pw.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pw.N() {
		for j := range pw.N() {
			m.Set(i, j, pw.At(i, j))
		}
	}
	return m
}

// TestPowerIterationMatchesTwoMatvecLoop is the bit-exact differential of
// the one-matvec power iteration against the two-matvec loop it replaced:
// random positive matrices, AHP judgment matrices perturbed as E10
// perturbs them at each of its sigmas, and a consistent rank-1 matrix, all
// through one reused workspace; every tenth random matrix gets too few
// iterations to converge and must fail with the reference's error text.
func TestPowerIterationMatchesTwoMatvecLoop(t *testing.T) {
	rng := stats.NewRNG(37)
	var w linalg.PowerWorkspace

	for trial := range 300 {
		n := 2 + rng.Intn(14)
		m, _ := linalg.New(n, n)
		for i := range n {
			for j := range n {
				m.Set(i, j, 0.01+10*rng.Float64())
			}
		}
		maxIter := 10000
		if trial%10 == 0 {
			maxIter = 1 + rng.Intn(3)
		}
		samePowerResult(t, fmt.Sprintf("random trial %d (n=%d, maxIter %d)", trial, n, maxIter), m, &w, maxIter)
	}

	for _, n := range []int{3, 8, 29} {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.2 + 0.8*rng.Float64() // ratios under 9: no Saaty clamp
		}
		consensus, err := mcda.FromWeights(weights)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := mcda.NewPairwise(n)
		if err != nil {
			t.Fatal(err)
		}
		samePowerResult(t, fmt.Sprintf("consistent rank-1 (n=%d)", n), matrixOf(t, consensus), &w, 10000)
		for _, sigma := range e10Sigmas {
			for trial := range 40 {
				if err := mcda.PerturbInto(noisy, consensus, sigma, rng); err != nil {
					t.Fatal(err)
				}
				samePowerResult(t, fmt.Sprintf("AHP n=%d sigma %g trial %d", n, sigma, trial), matrixOf(t, noisy), &w, 10000)
			}
		}
	}
}
