package linalg

import (
	"math"
	"slices"
	"testing"

	"lossycorr/internal/xrand"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
}

// clone deep-copies a matrix that a solver will overwrite.
func clone(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data)}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// overdetermined consistent system: y = 2 + 3x
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	sol, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol[0]-2) > 1e-10 || math.Abs(sol[1]-3) > 1e-10 {
		t.Fatalf("solution %v", sol)
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	// random overdetermined system: residual must be orthogonal to columns
	rng := xrand.New(77)
	m, n := 12, 4
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	orig := clone(a)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := make([]float64, m)
	for i := range ax {
		for j, xj := range x {
			ax[i] += orig.At(i, j) * xj
		}
	}
	for j := 0; j < n; j++ {
		var dot float64
		for i := 0; i < m; i++ {
			dot += orig.At(i, j) * (b[i] - ax[i])
		}
		if math.Abs(dot) > 1e-9 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("expected underdetermined error")
	}
	a = NewMatrix(3, 2) // zero columns: rank deficient
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected rank-deficient error")
	}
	a = NewMatrix(3, 1)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("expected rhs length error")
	}
}

func TestPolyFitRecoversPolynomial(t *testing.T) {
	coeffs := []float64{1, -2, 0.5}
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = coeffs[0] + coeffs[1]*x + coeffs[2]*x*x
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if math.Abs(got[i]-coeffs[i]) > 1e-9 {
			t.Fatalf("coeff %d: %v want %v", i, got[i], coeffs[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected length mismatch")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("expected negative degree error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 3); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 7)
	eig, err := symEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Fatalf("eig %v want %v", eig, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	eig, err := symEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eig %v", eig)
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	rng := xrand.New(5)
	n := 10
	a := NewMatrix(n, n)
	var trace float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		trace += a.At(i, i)
	}
	eig, err := symEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range eig {
		sum += e
	}
	if math.Abs(sum-trace) > 1e-8 {
		t.Fatalf("trace %v vs eig sum %v", trace, sum)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, err := symEigen(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestGoldenMinimize(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	x := GoldenMinimize(f, 0, 10, 1e-8)
	if math.Abs(x-2.5) > 1e-6 {
		t.Fatalf("minimizer %v", x)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty mean/std")
	}
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("mean %v", Mean(x))
	}
	if math.Abs(Std(x)-2) > 1e-12 {
		t.Fatalf("std %v", Std(x))
	}
}
