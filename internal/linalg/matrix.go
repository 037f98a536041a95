// Package linalg provides the small dense-matrix toolkit needed by the MCDA
// layer: matrix construction and the principal-eigenvector computation that
// the Analytic Hierarchy Process uses to turn pairwise comparison matrices
// into priority vectors.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrDimension indicates a shape mismatch between operands.
var ErrDimension = errors.New("linalg: dimension mismatch")

// New returns a zero matrix with the given shape.
func New(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: invalid shape %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at (i, j). Out-of-range indices panic, as with
// slice indexing.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// mulVecInto writes m·v into out; the caller guarantees the shapes.
func (m *Matrix) mulVecInto(out, v []float64) {
	for i := range out {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// PowerIterationResult carries the dominant eigenpair of a matrix.
type PowerIterationResult struct {
	// Eigenvalue is the dominant eigenvalue estimate (lambda_max for AHP
	// matrices).
	Eigenvalue float64
	// Eigenvector is the associated eigenvector normalised to sum to one,
	// as AHP priority vectors require.
	Eigenvector []float64
	// Iterations is the number of iterations performed until convergence.
	Iterations int
}

// PowerWorkspace holds the vectors a power iteration works in. Reusing one
// workspace across Run calls keeps them allocation-free once its buffers
// have grown to the matrix dimension. The zero value is ready to use; a
// workspace is not safe for concurrent use.
type PowerWorkspace struct {
	v, next, av []float64
}

// Run computes the dominant eigenpair of a square matrix with positive
// entries (the AHP setting guarantees positivity, which makes the dominant
// eigenvalue real and simple by Perron–Frobenius) in the workspace's
// buffers. It returns an error if the matrix is not square, contains
// non-positive entries, or the iteration fails to converge within maxIter
// iterations to tolerance tol. The result's Eigenvector aliases the
// workspace and is overwritten by the next Run.
func (w *PowerWorkspace) Run(m *Matrix, maxIter int, tol float64) (PowerIterationResult, error) {
	if !m.IsSquare() {
		return PowerIterationResult{}, fmt.Errorf("%w: power iteration needs a square matrix, got %dx%d", ErrDimension, m.rows, m.cols)
	}
	if maxIter <= 0 {
		return PowerIterationResult{}, errors.New("linalg: maxIter must be positive")
	}
	if tol <= 0 {
		return PowerIterationResult{}, errors.New("linalg: tolerance must be positive")
	}
	n := m.rows
	for k, x := range m.data {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return PowerIterationResult{}, fmt.Errorf("linalg: power iteration requires strictly positive finite entries, found %g at (%d,%d)", x, k/n, k%n)
		}
	}
	w.v, w.next, w.av = resize(w.v, n), resize(w.next, n), resize(w.av, n)
	v, next, av := w.v, w.next, w.av
	for i := range v {
		v[i] = 1 / float64(n)
	}
	// One matvec per iteration: M·next, taken for the eigenvalue
	// estimate, is the next iteration's unnormalised M·v.
	m.mulVecInto(next, v)
	for iter := 1; iter <= maxIter; iter++ {
		var sum float64
		for _, x := range next {
			sum += x
		}
		if sum == 0 {
			return PowerIterationResult{}, errors.New("linalg: power iteration collapsed to zero vector")
		}
		for i := range next {
			next[i] /= sum
		}
		m.mulVecInto(av, next)
		var delta float64
		for i := range v {
			delta += math.Abs(next[i] - v[i])
		}
		if delta < tol {
			// Rayleigh-style eigenvalue estimate: mean of componentwise
			// ratios (Av)_i / v_i. For positive matrices every component
			// is valid.
			var est float64
			for i := range next {
				est += av[i] / next[i]
			}
			est /= float64(n)
			return PowerIterationResult{Eigenvalue: est, Eigenvector: next, Iterations: iter}, nil
		}
		v, next, av = next, av, v
	}
	return PowerIterationResult{}, fmt.Errorf("linalg: power iteration did not converge in %d iterations", maxIter)
}

// resize returns s with length n, reallocating only when it is too short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
