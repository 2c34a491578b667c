package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNonFinite reports a NaN or ±Inf entry in a matrix handed to
// SymEigenBatch: its eigenvalues are undefined.
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

// Eigenproblem is one matrix of a SymEigenBatch call, on storage the
// caller owns and may reuse: A holds the n×n symmetric matrix row-major
// (only its lower triangle is read, and A is destroyed), D receives its
// n eigenvalues in descending order, and E is n words of scratch;
// n = len(D). The unexported rest is the matrix's resumable QL state.
type Eigenproblem struct {
	A, D, E []float64
	ql      qlState
}

// SymEigenBatch computes all eigenvalues of every matrix of ps. A
// matrix's eigenvalues depend on that matrix alone: they are the same
// bits in any batch, at any position.
//
// The algorithm is the values-only textbook route (Golub & Van Loan,
// Matrix Computations §8.3; EISPACK tred1/tql1): Householder
// reflections reduce each matrix to tridiagonal form in 4n³/3 flops,
// then implicit-shift QL iteration with Wilkinson shifts isolates each
// eigenvalue, O(n) flops per sweep. Both steps are backward stable: the
// returned values are the exact eigenvalues of a matrix within a small
// multiple of n·ε·‖a‖ of a, so every value lies that close to the true
// one. The QL sweeps of the batch's matrices run interleaved, one
// Givens rotation per matrix per round: the rotations of different
// matrices are independent dependency chains, so the CPU overlaps their
// divides and square roots, while each matrix runs exactly the
// arithmetic it would run alone.
//
// A matrix with a NaN or ±Inf entry fails with ErrNonFinite before any
// arithmetic on it (the check is O(n²)); one whose eigenvalues are
// still unresolved after qlMaxIter·n sweeps fails with
// ErrNoConvergence. The error returned is that of the lowest failing
// index, and the eigenvalues of every matrix are then unsorted.
func SymEigenBatch(ps []Eigenproblem) error {
	for i := range ps {
		p := &ps[i]
		n := len(p.D)
		p.ql = qlState{d: p.D, e: p.E}
		switch {
		case len(p.A) != n*n || len(p.E) != n:
			p.ql.err = fmt.Errorf("linalg: eigenproblem %d needs an %d×%d matrix and %d scratch words, got %d and %d",
				i, n, n, n, len(p.A), len(p.E))
		case !allFinite(p.A):
			p.ql.err = ErrNonFinite
		default:
			tridiagonalize(p.A, p.D, p.E)
		}
	}
	interleaveQL(ps)
	for i := range ps {
		if err := ps[i].ql.err; err != nil {
			return err
		}
	}
	for i := range ps {
		slices.Sort(ps[i].D)
		slices.Reverse(ps[i].D)
	}
	return nil
}

// interleaveQL runs the QL iteration of every problem of ps whose
// state holds no error, one rotation per live problem per round; a
// problem whose sweep ends starts its next one in the same round.
func interleaveQL(ps []Eigenproblem) {
	live := 0
	for i := range ps {
		if q := &ps[i].ql; q.err == nil && q.next() {
			live++
		}
	}
	for live > 0 {
		for j := range ps {
			q := &ps[j].ql
			if !q.busy {
				continue
			}
			// One Givens rotation, chasing the bulge one row up.
			d, e, i := q.d, q.e, q.i
			f, b := q.s*e[i], q.c*e[i]
			r := hypot(f, q.g)
			e[i+1] = r
			if r == 0 {
				// Underflow: the rotation split the matrix; the next
				// sweep restarts the search with d[i+1] corrected.
				d[i+1] -= q.p
				e[q.m] = 0
			} else {
				s, c := f/r, q.g/r
				g := d[i+1] - q.p
				r = (d[i]-g)*s + 2*c*b
				p := s * r
				d[i+1] = g + p
				g = c*r - b
				if i > q.l {
					q.s, q.c, q.p, q.g, q.i = s, c, p, g, i-1
					continue
				}
				d[i] -= float64(p) // fma:rounded: the stored product, not fused here
				e[i] = g
				e[q.m] = 0
			}
			if !q.next() {
				live--
			}
		}
	}
}

func allFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v - v) { // NaN for NaN and ±Inf alone
			return false
		}
	}
	return true
}

// tridiagonalize reduces the symmetric n×n matrix a (row-major, lower
// triangle, n = len(d)) to a tridiagonal matrix with diagonal d and
// off-diagonal e, where e[i] couples d[i] and d[i+1] and e[n-1] = 0.
// Rows are reduced from the last upward, so each Householder vector is
// a contiguous row slice a[i][0:i] and the update touches the leading
// i×i lower triangle row by row.
func tridiagonalize(a, d, e []float64) {
	n := len(d)
	row := func(i int) []float64 { return a[i*n : i*n+i+1] } // a[i][0..i]
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
		// triangle. Row j adds rj[k]·u[j] to p[k] for k < j and its dot
		// with u to p[j]; rows go two at a time, each word of p taking
		// row j's term before row j+1's, as one row at a time would.
		p := e[:i]
		clear(p)
		j := 0
		for ; j+1 < i; j += 2 {
			r0, r1 := row(j), row(j+1)
			u0, u1 := u[j], u[j+1]
			s0, s1 := r0[j]*u0, r1[j+1]*u1
			r1k, uk, pk := r1[:j], u[:j], p[:j]
			for k, v := range r0[:j] {
				w := r1k[k]
				s0 += v * uk[k]
				s1 += w * uk[k]
				pk[k] = pk[k] + v*u0 + w*u1
			}
			p[j] += s0
			s1 += r1[j] * u0
			p[j] += r1[j] * u1
			p[j+1] += s1
		}
		for ; j < i; j++ {
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
		// A ← A − u·qᵀ − q·uᵀ with q = p − (uᵀp/2h)·u, two rows at a
		// time.
		hh := up / (h + h)
		for j := range p {
			p[j] -= hh * u[j]
		}
		j = 0
		for ; j+1 < i; j += 2 {
			r0, r1 := row(j), row(j+1)
			u0, q0, u1, q1 := u[j], p[j], u[j+1], p[j+1]
			r1 = r1[:len(r0)+1]
			pk, uk := p[:len(r0)], u[:len(r0)]
			for k := range r0 {
				r0[k] -= u0*pk[k] + q0*uk[k]
				r1[k] -= u1*pk[k] + q1*uk[k]
			}
			r1[j+1] -= u1*p[j+1] + q1*u[j+1]
		}
		for ; j < i; j++ {
			rj := row(j)
			uj, qj := u[j], p[j]
			for k := range rj {
				rj[k] -= uj*p[k] + qj*u[k]
			}
		}
	}
	for i := range d {
		d[i] = a[i*n+i]
	}
	if n > 0 {
		copy(e, e[1:])
		e[n-1] = 0
	}
}

// qlState is one matrix's implicit-shift QL iteration on the symmetric
// tridiagonal matrix (d, e), e[i] coupling d[i] and d[i+1], held
// between rotations so that a batch can interleave its matrices. It
// overwrites d with the eigenvalues (unordered) and destroys e.
type qlState struct {
	d, e []float64
	// l is the eigenvalue being isolated; the current sweep chases the
	// bulge from m up to l, and i is its next rotation.
	l, m, i    int
	sweeps     int
	s, c, p, g float64
	busy       bool // a sweep is under way
	err        error
}

// next starts the matrix's next sweep: it moves l past every isolated
// eigenvalue, then sets up the Wilkinson shift of the leading 2×2
// block. It reports false once every eigenvalue is isolated, or when
// the sweep budget is spent (err is then ErrNoConvergence).
func (q *qlState) next() bool {
	d, e := q.d, q.e
	n := len(d)
	q.busy = false
	for ; q.l < n; q.l++ {
		l := q.l
		// Find the first negligible off-diagonal at or below l.
		m := l
		for ; m < n-1; m++ {
			dd := math.Abs(d[m]) + math.Abs(d[m+1])
			if math.Abs(e[m])+dd == dd {
				break
			}
		}
		if m == l {
			continue // d[l] is isolated
		}
		if q.sweeps == qlMaxIter*n {
			q.err = ErrNoConvergence
			return false
		}
		q.sweeps++
		g := (d[l+1] - d[l]) / (2 * e[l])
		r := hypot(g, 1)
		if g < 0 {
			r = -r
		}
		q.g = d[m] - d[l] + e[l]/(g+r)
		q.s, q.c, q.p = 1, 1, 0
		q.m, q.i = m, m-1
		q.busy = true
		return true
	}
	return false
}

// hypot is math.Hypot, bit for bit, in a form the compiler inlines:
// √(p²+q²) as max·√(1+(min/max)²), +Inf if either argument is ±Inf,
// else NaN if either is NaN.
func hypot(p, q float64) float64 {
	p, q = max(p, -p), max(q, -q) // |p|, |q|, NaN kept
	if p < q || p != p {
		p, q = q, p // p is the larger, or the non-NaN one
	}
	if q > 0 && p <= math.MaxFloat64 {
		q /= p
		return p * math.Sqrt(1+float64(q*q)) // fma:rounded
	}
	// q is 0 or NaN, or p is +Inf.
	if p > math.MaxFloat64 {
		return posInf
	}
	if q == q {
		return p
	}
	return nan
}

// posInf and nan are math.Inf(1) and math.NaN(), read from memory so
// that hypot stays within the inlining budget.
var posInf, nan = math.Inf(1), math.NaN()
