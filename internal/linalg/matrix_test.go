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
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("element order wrong")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input should fail")
	}
}

func TestFromRowsCopies(t *testing.T) {
	row := []float64{1, 2}
	m, _ := FromRows([][]float64{row})
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromRows aliased caller data")
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

func TestClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestIdentityAndMul(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	id, err := Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != m.At(i, j) {
				t.Fatalf("M*I != M at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnownProduct(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Fatalf("product (%d,%d) = %g, want %g", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionError(t *testing.T) {
	a, _ := New(2, 3)
	b, _ := New(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimension) {
		t.Fatalf("expected ErrDimension, got %v", err)
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
	if _, err := m.MulVec([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestNormalize1(t *testing.T) {
	v := Normalize1([]float64{1, 3})
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Fatalf("Normalize1 = %v", v)
	}
	z := Normalize1([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector should pass through unchanged")
	}
}

func TestPowerIterationDiagonal(t *testing.T) {
	// Strictly positive matrix with a known dominant structure: a rank-one
	// perturbation w·1^T has eigenvalue sum(w) with eigenvector w.
	w := []float64{0.5, 0.3, 0.2}
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = []float64{w[i], w[i], w[i]}
	}
	m, _ := FromRows(rows)
	res, err := PowerIteration(m, 1000, 1e-12)
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
	m, _ := FromRows(rows)
	res, err := PowerIteration(m, 1000, 1e-12)
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
	m, _ := FromRows([][]float64{
		{1, 2, 4},
		{0.5, 1, 3},
		{0.25, 1.0 / 3.0, 1},
	})
	res, err := PowerIteration(m, 1000, 1e-12)
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
	if _, err := PowerIteration(rect, 100, 1e-9); !errors.Is(err, ErrDimension) {
		t.Fatal("non-square should fail")
	}
	withZero, _ := FromRows([][]float64{{1, 0}, {1, 1}})
	if _, err := PowerIteration(withZero, 100, 1e-9); err == nil {
		t.Fatal("zero entry should fail")
	}
	ok, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := PowerIteration(ok, 0, 1e-9); err == nil {
		t.Fatal("maxIter=0 should fail")
	}
	if _, err := PowerIteration(ok, 100, 0); err == nil {
		t.Fatal("tol=0 should fail")
	}
}

func TestPowerIterationNonConvergence(t *testing.T) {
	m, _ := FromRows([][]float64{
		{1, 9, 0.2},
		{1.0 / 9.0, 1, 7},
		{5, 1.0 / 7.0, 1},
	})
	// One iteration cannot reach a 1e-15 tolerance on this matrix.
	if _, err := PowerIteration(m, 1, 1e-15); err == nil {
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
