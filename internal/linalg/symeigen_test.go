package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"lossycorr/internal/xrand"
)

// jacobiRef is the cyclic Jacobi eigensolver the library used before the
// tridiagonal-QL rewrite, kept as the differential oracle with its
// arithmetic verbatim; it indexes the square matrix's row-major data
// directly, which the race detector instruments once per element rather
// than once per field of every At and Set. a is destroyed and the
// eigenvalues come back in descending order.
func jacobiRef(a *Matrix) []float64 {
	n, d := a.Rows, a.Data
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += d[i*n+j] * d[i*n+j]
			}
		}
		if off < 1e-24*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := d[p*n+q]
				if apq == 0 {
					continue
				}
				app, aqq := d[p*n+p], d[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := d[k*n+p], d[k*n+q]
					d[k*n+p] = c*akp - s*akq
					d[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := d[p*n+k], d[q*n+k]
					d[p*n+k] = c*apk - s*aqk
					d[q*n+k] = s*apk + c*aqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = d[i*n+i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig
}

// energyLevel is the truncation rule of svdstat's windowLevels applied to
// a descending spectrum: the smallest k whose leading k positive
// eigenvalues reach frac of the positive total, 0 when that total is 0.
func energyLevel(eig []float64, frac float64) int {
	var total float64
	for _, e := range eig {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for i, e := range eig {
		if e > 0 {
			acc += e
		}
		if acc >= frac*total {
			return i + 1
		}
	}
	return len(eig)
}

// levelTied reports whether energyLevel's choice on eig at frac can
// flip when every eigenvalue moves by up to tol: some partial sum lies
// within 2·n·tol of the threshold. Exactly repeated eigenvalues put the
// threshold on a partial sum (frac·k copies of λ), where the level is
// decided by the last bit and two correct solvers may differ.
func levelTied(eig []float64, frac, tol float64) bool {
	var total float64
	for _, e := range eig {
		total += max(e, 0)
	}
	margin := 2 * float64(len(eig)) * tol
	var acc float64
	for _, e := range eig {
		acc += max(e, 0)
		if math.Abs(acc-frac*total) <= margin {
			return true
		}
	}
	return false
}

// symmetrize mirrors the lower triangle of m into its upper triangle.
func symmetrize(m *Matrix) *Matrix {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
	return m
}

// gramOf returns AᵀA for the rows×n matrix a.
func gramOf(a *Matrix) *Matrix {
	n := a.Cols
	g := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for t := 0; t < a.Rows; t++ {
				s += a.At(t, i) * a.At(t, j)
			}
			g.Set(i, j, s)
		}
	}
	return symmetrize(g)
}

// reflect applies the Householder reflector I − 2vvᵀ/vᵀv on both sides
// of the symmetric matrix m (m ← HmH), preserving its spectrum.
func reflect(m *Matrix, v []float64) {
	n := m.Rows
	var vv float64
	for _, x := range v {
		vv += x * x
	}
	if vv == 0 {
		return
	}
	vm := make([]float64, n) // vᵀm
	for j := range vm {
		for k := 0; k < n; k++ {
			vm[j] += v[k] * m.At(k, j)
		}
	}
	tmp := NewMatrix(n, n)
	for i := 0; i < n; i++ { // tmp = H·m
		for j := 0; j < n; j++ {
			tmp.Set(i, j, m.At(i, j)-2*v[i]*vm[j]/vv)
		}
	}
	for i := 0; i < n; i++ { // m = tmp·H
		var s float64
		for k := 0; k < n; k++ {
			s += tmp.At(i, k) * v[k]
		}
		for j := 0; j < n; j++ {
			m.Set(i, j, tmp.At(i, j)-2*s*v[j]/vv)
		}
	}
	symmetrize(m) // remove the rounding asymmetry
}

// oracleCase builds the idx-th matrix of the differential corpus: the
// kind cycles through the structures an eigensolver gets wrong first,
// and within each kind n walks 0..16, with every 8th case drawn from
// 17..64 instead (the Jacobi reference is O(n³) per sweep).
func oracleCase(idx int, rng *xrand.Rand) (string, *Matrix) {
	step := idx / 8
	n := step % 17
	if step%8 == 7 {
		n = 17 + (step/8)%48
	}
	m := NewMatrix(n, n)
	switch idx % 8 {
	case 0: // dense Gaussian
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		return "gaussian", symmetrize(m)
	case 1: // rank-deficient Gram BBᵀ, rank r < n
		r := 0
		if n > 1 {
			r = 1 + rng.Intn(n-1)
		}
		b := NewMatrix(r, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		return "rank-deficient", gramOf(b)
	case 2: // integer-valued entries in [-5, 5]
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				m.Set(i, j, float64(rng.Intn(11)-5))
			}
		}
		return "integer", symmetrize(m)
	case 3: // integer-valued, rank-deficient Gram of a short wide window
		rows := 1 + rng.Intn(n/2+1)
		b := NewMatrix(rows, n)
		for i := range b.Data {
			b.Data[i] = float64(rng.Intn(7) - 3)
		}
		return "integer-gram", gramOf(b)
	case 4: // repeated eigenvalues: H₂H₁·diag(λ)·H₁H₂ with λ from 2 values
		vals := [2]float64{1 + rng.Float64(), -2 * rng.Float64()}
		for i := 0; i < n; i++ {
			m.Set(i, i, vals[rng.Intn(2)])
		}
		for t := 0; t < 2; t++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			reflect(m, v)
		}
		return "repeated", m
	case 5: // diagonal, with repeats
		for i := 0; i < n; i++ {
			m.Set(i, i, float64(rng.Intn(5))+0.5*rng.Float64()*float64(i%2))
		}
		return "diagonal", m
	case 6: // already tridiagonal
		for i := 0; i < n; i++ {
			m.Set(i, i, rng.NormFloat64())
			if i > 0 {
				m.Set(i, i-1, rng.NormFloat64())
			}
		}
		return "tridiagonal", symmetrize(m)
	default:
		return "zero", m
	}
}

func maxAbs(m *Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		mx = math.Max(mx, math.Abs(v))
	}
	return mx
}

// symEigen solves the square matrix m as a batch of one: m is
// destroyed and the eigenvalues come back in descending order.
func symEigen(m *Matrix) ([]float64, error) {
	ps := []Eigenproblem{problemOf(m)}
	if err := SymEigenBatch(ps); err != nil {
		return nil, err
	}
	return ps[0].D, nil
}

// problemOf wraps m's storage as a batch entry with fresh D and E.
func problemOf(m *Matrix) Eigenproblem {
	return Eigenproblem{A: m.Data, D: make([]float64, m.Rows), E: make([]float64, m.Rows)}
}

// TestSymEigenMatchesJacobi is the solver's differential oracle: over a
// seeded corpus of 10⁴ symmetric matrices (n = 0..64; dense, rank-
// deficient, integer-valued, repeated-eigenvalue, diagonal, tridiagonal
// and zero) the tridiagonal-QL values must agree with the cyclic Jacobi
// reference within 16·n·ε·‖G‖max, and the truncation levels the Gram
// path derives from them must be identical at every paper fraction. A
// differing level is tolerated only where the threshold sits within
// that tolerance of a partial sum (a tie only exact eigenvalue
// multiplicities produce), and such ties are counted and logged. The
// corpus is solved in batches of one and, in order, of eight mixed
// sizes, whose every value must carry the batch of one's bits.
func TestSymEigenMatchesJacobi(t *testing.T) {
	const cases, width = 10000, 8
	fracs := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	rng := xrand.New(2024)
	var worst float64
	var ties int
	for base := 0; base < cases; base += width {
		var kinds [width]string
		var ms [width]*Matrix
		batch := make([]Eigenproblem, 0, width)
		for l := range width {
			kinds[l], ms[l] = oracleCase(base+l, rng)
			batch = append(batch, problemOf(clone(ms[l])))
		}
		if err := SymEigenBatch(batch); err != nil {
			t.Fatalf("batch at case %d: %v", base, err)
		}
		for l, m := range ms {
			idx, kind, n := base+l, kinds[l], m.Rows
			norm := maxAbs(m)
			got, err := symEigen(clone(m))
			if err != nil {
				t.Fatalf("case %d (%s, n=%d): %v", idx, kind, n, err)
			}
			for i, v := range batch[l].D {
				if math.Float64bits(v) != math.Float64bits(got[i]) {
					t.Fatalf("case %d (%s, n=%d): λ[%d] = %v in a batch of %d, %v alone",
						idx, kind, n, i, v, width, got[i])
				}
			}
			want := jacobiRef(clone(m))
			if len(got) != n {
				t.Fatalf("case %d (%s): %d eigenvalues for n=%d", idx, kind, len(got), n)
			}
			tol := 16 * float64(n) * 0x1p-52 * norm
			for i := range want {
				d := math.Abs(got[i] - want[i])
				if d > tol {
					t.Fatalf("case %d (%s, n=%d): λ[%d] = %v, Jacobi %v (|Δ| %.3g > %.3g)",
						idx, kind, n, i, got[i], want[i], d, tol)
				}
				if norm > 0 {
					worst = math.Max(worst, d/(float64(n)*0x1p-52*norm))
				}
			}
			for _, frac := range fracs {
				a, b := energyLevel(got, frac), energyLevel(want, frac)
				if a == b {
					continue
				}
				if !levelTied(want, frac, tol) {
					t.Fatalf("case %d (%s, n=%d) frac=%v: level %d, Jacobi %d", idx, kind, n, frac, a, b)
				}
				ties++
			}
		}
	}
	t.Logf("largest eigenvalue gap %.2f·n·ε·‖G‖max; levels differ, each at a tie, in %d of %d decisions",
		worst, ties, cases*len(fracs))
}

func TestSymEigenNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {3, 1}, {1, 3}} {
			m := NewMatrix(4, 4)
			for i := 0; i < 4; i++ {
				m.Set(i, i, float64(i+1))
			}
			m.Set(at[0], at[1], bad)
			if _, err := symEigen(m); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%v at %v: err %v, want ErrNonFinite", bad, at, err)
			}
		}
	}
}

// TestTridiagonalQLIterationCap pins the bounded-cost contract of the
// QL step behind SymEigenBatch's finiteness check: a NaN coupling never
// deflates, so the step must give up with ErrNoConvergence after its
// budget instead of spinning, and its batch companions still converge.
func TestTridiagonalQLIterationCap(t *testing.T) {
	ps := make([]Eigenproblem, 3)
	for i := range ps {
		ps[i].ql = qlState{d: []float64{1, 2, 3}, e: []float64{0.5, 1, 0}}
	}
	ps[1].ql.e[0] = math.NaN()
	interleaveQL(ps)
	for i, p := range ps {
		if i == 1 {
			if !errors.Is(p.ql.err, ErrNoConvergence) {
				t.Fatalf("NaN coupling: err %v, want ErrNoConvergence", p.ql.err)
			}
			if p.ql.sweeps != qlMaxIter*3 {
				t.Fatalf("NaN coupling gave up after %d sweeps, want %d", p.ql.sweeps, qlMaxIter*3)
			}
		} else if p.ql.err != nil {
			t.Fatalf("companion %d: %v", i, p.ql.err)
		}
	}
	// The batch answers with the lowest failing index's error: a
	// non-finite matrix at index 1 outranks a malformed one at 2.
	m := NewMatrix(2, 2)
	m.Set(1, 0, math.NaN())
	batch := []Eigenproblem{problemOf(NewMatrix(3, 3)), problemOf(m), {A: make([]float64, 3), D: make([]float64, 2), E: make([]float64, 2)}}
	if err := SymEigenBatch(batch); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("batch err %v, want ErrNonFinite", err)
	}
}

// TestHypotMatchesMathHypot pins hypot to math.Hypot bit for bit: 10⁶
// seeded arguments (raw bit patterns, and Gaussians over ±300 decades
// of scale), then every pair of ±0, subnormals, the normal range's
// ends, ±Inf and NaNs with several payloads.
func TestHypotMatchesMathHypot(t *testing.T) {
	check := func(p, q float64) {
		got, want := hypot(p, q), math.Hypot(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)",
				p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := xrand.New(17)
	for i := range 1000000 {
		if i%2 == 0 {
			check(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
		} else {
			check(rng.NormFloat64()*math.Pow(10, 600*rng.Float64()-300), rng.NormFloat64())
		}
	}
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 4,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1023,
		0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 0x1p1000,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
	}
	for _, p := range specials {
		for _, q := range specials {
			check(p, q)
		}
	}
}

func BenchmarkSymEigen(b *testing.B) {
	for _, n := range []int{12, 32, 64} {
		rng := xrand.New(uint64(n))
		var grams [8]*Matrix
		for l := range grams {
			w := NewMatrix(2*n, n)
			for i := range w.Data {
				w.Data[i] = rng.NormFloat64()
			}
			grams[l] = gramOf(w)
		}
		for _, width := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/width=%d", n, width), func(b *testing.B) {
				ps := make([]Eigenproblem, width)
				for l := range ps {
					ps[l] = problemOf(NewMatrix(n, n))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l := range ps {
						copy(ps[l].A, grams[l].Data)
					}
					if err := SymEigenBatch(ps); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/matrix")
			})
		}
	}
}
