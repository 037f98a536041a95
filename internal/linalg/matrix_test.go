package linalg

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Fatal("zero rows should fail")
	}
	if _, err := New(3, -1); err == nil {
		t.Fatal("negative cols should fail")
	}
	m, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.IsSquare() {
		t.Fatalf("shape = %d rows, square %v", m.Rows(), m.IsSquare())
	}
}

func TestSetAt(t *testing.T) {
	m, _ := New(2, 2)
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m, _ := New(2, 2)
	m.At(2, 0)
}

// TestMulVec checks the product the power iteration runs on, for a
// rectangular matrix so that rows and columns cannot be swapped.
func TestMulVec(t *testing.T) {
	m, _ := New(2, 3)
	for i, x := range []float64{1, 2, 3, 4, 5, 6} {
		m.Set(i/3, i%3, x)
	}
	out := []float64{-1, -1}
	m.mulVecInto(out, []float64{1, 0, -1})
	if out[0] != -2 || out[1] != -2 {
		t.Fatalf("m·v = %v, want [-2 -2]", out)
	}
	m.mulVecInto(out, []float64{1, 1, 1})
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("m·1 = %v, want [6 15]", out)
	}
}

// fill returns the square matrix with the given rows.
func fill(rows [][]float64) *Matrix {
	m, _ := New(len(rows), len(rows))
	for i, r := range rows {
		for j, x := range r {
			m.Set(i, j, x)
		}
	}
	return m
}

func TestPowerIterationDiagonal(t *testing.T) {
	// Strictly positive matrix with a known dominant structure: a rank-one
	// perturbation w·1^T has eigenvalue sum(w) with eigenvector w.
	w := []float64{0.5, 0.3, 0.2}
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = []float64{w[i], w[i], w[i]}
	}
	m := fill(rows)
	res, err := new(PowerWorkspace).Run(m, 1000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Eigenvalue-1.0) > 1e-9 {
		t.Fatalf("eigenvalue = %g, want 1", res.Eigenvalue)
	}
	for i := range w {
		if math.Abs(res.Eigenvector[i]-w[i]) > 1e-9 {
			t.Fatalf("eigenvector = %v, want %v", res.Eigenvector, w)
		}
	}
}

func TestPowerIterationConsistentAHPMatrix(t *testing.T) {
	// A perfectly consistent pairwise matrix a_ij = w_i/w_j has
	// lambda_max = n and priority vector proportional to w.
	w := []float64{0.6, 0.3, 0.1}
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = make([]float64, 3)
		for j := range rows[i] {
			rows[i][j] = w[i] / w[j]
		}
	}
	m := fill(rows)
	res, err := new(PowerWorkspace).Run(m, 1000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Eigenvalue-3) > 1e-6 {
		t.Fatalf("lambda_max = %g, want 3", res.Eigenvalue)
	}
	for i := range w {
		if math.Abs(res.Eigenvector[i]-w[i]) > 1e-6 {
			t.Fatalf("priorities = %v, want %v", res.Eigenvector, w)
		}
	}
}

func TestPowerIterationEigenvectorSumsToOne(t *testing.T) {
	m := fill([][]float64{
		{1, 2, 4},
		{0.5, 1, 3},
		{0.25, 1.0 / 3.0, 1},
	})
	res, err := new(PowerWorkspace).Run(m, 1000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range res.Eigenvector {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("eigenvector sum = %g", sum)
	}
	// An inconsistent 3x3 positive reciprocal matrix has lambda_max >= 3.
	if res.Eigenvalue < 3-1e-9 {
		t.Fatalf("lambda_max = %g < n", res.Eigenvalue)
	}
}

func TestPowerIterationValidation(t *testing.T) {
	rect, _ := New(2, 3)
	if _, err := new(PowerWorkspace).Run(rect, 100, 1e-9); !errors.Is(err, ErrDimension) {
		t.Fatal("non-square should fail")
	}
	withZero := fill([][]float64{{1, 0}, {1, 1}})
	if _, err := new(PowerWorkspace).Run(withZero, 100, 1e-9); err == nil {
		t.Fatal("zero entry should fail")
	}
	ok := fill([][]float64{{1, 1}, {1, 1}})
	if _, err := new(PowerWorkspace).Run(ok, 0, 1e-9); err == nil {
		t.Fatal("maxIter=0 should fail")
	}
	if _, err := new(PowerWorkspace).Run(ok, 100, 0); err == nil {
		t.Fatal("tol=0 should fail")
	}
}

func TestPowerIterationNonConvergence(t *testing.T) {
	m := fill([][]float64{
		{1, 9, 0.2},
		{1.0 / 9.0, 1, 7},
		{5, 1.0 / 7.0, 1},
	})
	// One iteration cannot reach a 1e-15 tolerance on this matrix.
	if _, err := new(PowerWorkspace).Run(m, 1, 1e-15); err == nil {
		t.Fatal("expected non-convergence error")
	}
}

func TestIsSquare(t *testing.T) {
	sq, _ := New(3, 3)
	rect, _ := New(2, 3)
	if !sq.IsSquare() || rect.IsSquare() {
		t.Fatal("IsSquare wrong")
	}
}

// powerIterationRef is the allocating power iteration PowerWorkspace.Run
// replaced, with its own matrix-vector product, kept as the reference its
// floating-point operations must reproduce exactly.
func powerIterationRef(m *Matrix, maxIter int, tol float64) (PowerIterationResult, error) {
	n := m.rows
	mulVec := func(v []float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += m.At(i, j) * v[j]
			}
			out[i] = s
		}
		return out
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	for iter := 1; iter <= maxIter; iter++ {
		next := mulVec(v)
		var sum float64
		for _, x := range next {
			sum += x
		}
		for i := range next {
			next[i] /= sum
		}
		av := mulVec(next)
		var est float64
		for i := range next {
			est += av[i] / next[i]
		}
		est /= float64(n)
		var delta float64
		for i := range v {
			delta += math.Abs(next[i] - v[i])
		}
		v = next
		if delta < tol {
			return PowerIterationResult{Eigenvalue: est, Eigenvector: v, Iterations: iter}, nil
		}
	}
	return PowerIterationResult{}, fmt.Errorf("linalg: power iteration did not converge in %d iterations", maxIter)
}

// TestPowerWorkspaceMatchesReference runs one reused workspace over random
// positive reciprocal matrices of growing and shrinking size and requires
// every result to equal the reference bit for bit.
func TestPowerWorkspaceMatchesReference(t *testing.T) {
	rng := stats.NewRNG(1)
	var w PowerWorkspace
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(14)
		m, _ := New(n, n)
		for i := 0; i < n; i++ {
			m.Set(i, i, 1)
			for j := i + 1; j < n; j++ {
				x := math.Exp(2 * rng.NormFloat64())
				m.Set(i, j, x)
				m.Set(j, i, 1/x)
			}
		}
		maxIter := 10000
		if trial%10 == 0 {
			maxIter = 2 // exercise the non-convergence error
		}
		want, wantErr := powerIterationRef(m, maxIter, 1e-12)
		got, gotErr := w.Run(m, maxIter, 1e-12)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): %+v, want %+v", trial, n, got, want)
		}
	}
}
