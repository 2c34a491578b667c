// Package linalg supplies the small dense linear-algebra kernels the
// analysis pipeline needs: least-squares solvers (Householder QR),
// polynomial fitting in the style of numpy.polyfit, and a values-only
// symmetric eigensolver for batches of matrices on caller-owned storage
// (SymEigenBatch: Householder tridiagonalization, then the batch's
// implicit-shift QL sweeps interleaved; non-finite input is
// ErrNonFinite) whose eigenvalues of a window's Gram matrix give the
// local-SVD statistic's levels.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// ErrRankDeficient reports a least-squares system without full column rank.
var ErrRankDeficient = errors.New("linalg: rank-deficient system")

// SolveLeastSquares solves min_x ||Ax - b||₂ by Householder QR. A is
// destroyed. Requires Rows >= Cols and full column rank.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d != %d rows", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}
	rhs := make([]float64, m)
	copy(rhs, b)
	// Householder QR, applying reflectors to rhs as we go.
	for k := 0; k < n; k++ {
		// norm of column k below the diagonal
		var norm float64
		for i := k; i < m; i++ {
			norm = hypot(norm, a.At(i, k))
		}
		if norm == 0 {
			return nil, ErrRankDeficient
		}
		// Choose the sign that avoids cancellation: norm matches the
		// sign of the diagonal entry (JAMA convention).
		if a.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			a.Set(i, k, a.At(i, k)/norm)
		}
		a.Set(k, k, a.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += a.At(i, k) * a.At(i, j)
			}
			s = -s / a.At(k, k)
			for i := k; i < m; i++ {
				a.Set(i, j, a.At(i, j)+s*a.At(i, k))
			}
		}
		var s float64
		for i := k; i < m; i++ {
			s += a.At(i, k) * rhs[i]
		}
		s = -s / a.At(k, k)
		for i := k; i < m; i++ {
			rhs[i] += s * a.At(i, k)
		}
		a.Set(k, k, -norm) // R's diagonal after the reflection is -norm
	}
	// Back substitution with R stored in the upper triangle; note the
	// diagonal holds -||v|| from the reflection step, i.e. R[k][k].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		d := a.At(i, i)
		if d == 0 {
			return nil, ErrRankDeficient
		}
		x[i] = s / d
	}
	return x, nil
}

// PolyFit fits coefficients c so that y ≈ Σ c[k]·x^k (degree deg),
// the role numpy.polyfit plays in the paper's plotting pipeline.
// Coefficients are returned lowest order first.
func PolyFit(x, y []float64, deg int) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("linalg: PolyFit length mismatch %d vs %d", len(x), len(y))
	}
	if deg < 0 {
		return nil, fmt.Errorf("linalg: negative degree %d", deg)
	}
	if len(x) < deg+1 {
		return nil, fmt.Errorf("linalg: %d points cannot determine degree-%d fit", len(x), deg)
	}
	a := NewMatrix(len(x), deg+1)
	for i, xv := range x {
		p := 1.0
		for j := 0; j <= deg; j++ {
			a.Set(i, j, p)
			p *= xv
		}
	}
	return SolveLeastSquares(a, y)
}

// GoldenMinimize finds the minimizer of f on [lo, hi] by golden-section
// search to the given absolute tolerance on x.
func GoldenMinimize(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation (0 for len < 1).
func Std(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}
