// Package linalg supplies the small dense linear-algebra kernels the
// analysis pipeline needs: least-squares solvers (Householder QR),
// polynomial fitting in the style of numpy.polyfit, a values-only
// symmetric eigensolver (Householder tridiagonalization + implicit-shift
// QL, rejecting non-finite input with ErrNonFinite) whose eigenvalues
// of a window's Gram matrix give the local-SVD statistic's levels.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
			norm = math.Hypot(norm, a.At(i, k))
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

// ErrNonFinite reports a NaN or ±Inf entry in a matrix handed to
// SymEigen: its eigenvalues are undefined.
var ErrNonFinite = errors.New("linalg: matrix has a non-finite entry")

// ErrNoConvergence reports a matrix whose eigenvalues the QL iteration
// did not isolate within its sweep budget.
var ErrNoConvergence = errors.New("linalg: eigenvalue iteration did not converge")

// qlMaxIter bounds the implicit-shift QL sweeps at qlMaxIter·n for a
// whole n×n matrix, as LAPACK's dsterf does, not per eigenvalue as
// EISPACK's tql1 does. Convergence is cubic, so most eigenvalues need
// two or three sweeps, but a block of roundoff-level diagonal entries
// (smooth windows, whose Gram matrix has many near-zero eigenvalues)
// can need 31–55 for one eigenvalue, and the shared budget lets the
// quick ones pay for it. The sweep sequence does not depend on the
// budget, so a matrix that converges under either rule gets the same
// bits.
const qlMaxIter = 30

// SymEigen computes all eigenvalues of the symmetric n×n matrix a; only
// its lower triangle enters the arithmetic. a is destroyed. Eigenvalues
// are returned in descending order.
//
// The algorithm is the values-only textbook route (Golub & Van Loan,
// Matrix Computations §8.3; EISPACK tred1/tql1): Householder
// reflections reduce a to tridiagonal form in 4n³/3 flops, then
// implicit-shift QL iteration with Wilkinson shifts isolates each
// eigenvalue, O(n) flops per sweep. Both steps are backward stable: the
// returned values are the exact eigenvalues of a matrix within a small
// multiple of n·ε·‖a‖ of a, so every value lies that close to the true
// one.
//
// A NaN or ±Inf entry returns ErrNonFinite before any arithmetic (the
// check is O(n²)); eigenvalues still unresolved after qlMaxIter·n
// sweeps return ErrNoConvergence.
func SymEigen(a *Matrix) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SymEigen needs square matrix, got %dx%d", n, a.Cols)
	}
	for _, v := range a.Data {
		if math.IsNaN(v - v) { // NaN for NaN and ±Inf alone
			return nil, ErrNonFinite
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(a, d, e)
	if err := tridiagonalQL(d, e); err != nil {
		return nil, err
	}
	slices.Sort(d)
	slices.Reverse(d)
	return d, nil
}

// tridiagonalize reduces the symmetric matrix a (lower triangle) to a
// tridiagonal matrix with diagonal d and off-diagonal e, where e[i]
// couples d[i] and d[i+1] and e[n-1] = 0. Rows are reduced from the
// last upward, so each Householder vector is a contiguous row slice
// a[i][0:i] and the update touches the leading i×i lower triangle row
// by row.
func tridiagonalize(a *Matrix, d, e []float64) {
	n := a.Rows
	row := func(i int) []float64 { return a.Data[i*n : i*n+i+1] } // a[i][0..i]
	// While row i is reduced its coupling goes to e[i] (shifted down one
	// slot at the end), leaving e[0:i] free as scratch for p and q.
	for i := n - 1; i >= 1; i-- {
		u := row(i)[:i]
		l := i - 1
		var scale float64
		for _, v := range u {
			scale += math.Abs(v)
		}
		if i == 1 || scale == 0 {
			e[i] = u[l]
			continue
		}
		// Scale the row to avoid over/underflow in the squared norm; the
		// reflector I − u·uᵀ/h is invariant to the scale of u.
		var h float64
		for k := range u {
			u[k] /= scale
			h += u[k] * u[k]
		}
		f := u[l]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		u[l] = f - g
		// p = A·u/h over the leading i×i block, read from its lower
		// triangle one row at a time.
		p := e[:i]
		clear(p)
		for j := 0; j < i; j++ {
			rj := row(j)
			uj := u[j]
			s := rj[j] * uj
			for k, v := range rj[:j] {
				s += v * u[k]
				p[k] += v * uj
			}
			p[j] += s
		}
		var up float64
		for j := range p {
			p[j] /= h
			up += u[j] * p[j]
		}
		// A ← A − u·qᵀ − q·uᵀ with q = p − (uᵀp/2h)·u.
		hh := up / (h + h)
		for j := range p {
			p[j] -= hh * u[j]
		}
		for j := 0; j < i; j++ {
			rj := row(j)
			uj, qj := u[j], p[j]
			for k := range rj {
				rj[k] -= uj*p[k] + qj*u[k]
			}
		}
	}
	for i := range d {
		d[i] = a.Data[i*n+i]
	}
	if n > 0 {
		copy(e, e[1:])
		e[n-1] = 0
	}
}

// tridiagonalQL overwrites d with the eigenvalues (unordered) of the
// symmetric tridiagonal matrix (d, e), e[i] coupling d[i] and d[i+1],
// by implicit-shift QL; e is destroyed.
func tridiagonalQL(d, e []float64) error {
	n := len(d)
	sweeps := 0
	for l := 0; l < n; l++ {
		for {
			// Find the first negligible off-diagonal at or below l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break // d[l] is isolated
			}
			if sweeps == qlMaxIter*n {
				return ErrNoConvergence
			}
			sweeps++
			// Wilkinson shift from the leading 2×2 block, then chase the
			// bulge from m up to l with Givens rotations.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			if g < 0 {
				r = -r
			}
			g = d[m] - d[l] + e[l]/(g+r)
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: the rotation split the matrix; restart
					// the search with d[i+1] corrected.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
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
