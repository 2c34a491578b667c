package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"lossycorr/internal/xrand"
)

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// forward1D and inverse1D are the rank-1 ND transforms.
func forward1D(x []complex128) error { return ForwardND(x, []int{len(x)}, 1) }
func inverse1D(x []complex128) error { return InverseND(x, []int{len(x)}, 1) }

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) true", n)
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := xrand.New(17)
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := forward1D(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestInverseRoundtrip(t *testing.T) {
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 16, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		if err := forward1D(y); err != nil {
			t.Fatal(err)
		}
		if err := inverse1D(y); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if cmplx.Abs(y[i]-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d roundtrip error at %d: %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := xrand.New(31)
	n := 128
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		tEnergy += real(x[i]) * real(x[i])
	}
	if err := forward1D(x); err != nil {
		t.Fatal(err)
	}
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	fEnergy /= float64(n)
	if math.Abs(tEnergy-fEnergy) > 1e-8*tEnergy {
		t.Fatalf("Parseval violated: %v vs %v", tEnergy, fEnergy)
	}
}

func TestNonPow2Accepted(t *testing.T) {
	// The plan layer removed the power-of-two restriction: 5-smooth
	// lengths transform (and invert) instead of erroring.
	for _, n := range []int{3, 12} {
		x := randComplex(n, uint64(n))
		y := append([]complex128(nil), x...)
		if err := forward1D(y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := inverse1D(y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiff(y, x); d > 1e-9 {
			t.Fatalf("n=%d: round trip off by %g", n, d)
		}
	}
	if err := forward1D(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestForward2DRoundtrip(t *testing.T) {
	rng := xrand.New(41)
	dims := []int{8, 16}
	x := make([]complex128, dims[0]*dims[1])
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := ForwardND(y, dims, 1); err != nil {
		t.Fatal(err)
	}
	if err := InverseND(y, dims, 1); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("2D roundtrip error at %d", i)
		}
	}
}

func TestForward2DSeparability(t *testing.T) {
	// DFT of a separable function is the product of 1D DFTs.
	rows, cols := 4, 8
	fr := []complex128{1, -2, 3, 0.5}
	fc := []complex128{2, 0, -1, 4, 0.25, 1, -3, 0}
	x := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x[r*cols+c] = fr[r] * fc[c]
		}
	}
	if err := ForwardND(x, []int{rows, cols}, 1); err != nil {
		t.Fatal(err)
	}
	if err := forward1D(fr); err != nil {
		t.Fatal(err)
	}
	if err := forward1D(fc); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cmplx.Abs(x[r*cols+c]-fr[r]*fc[c]) > 1e-9 {
				t.Fatalf("separability fails at (%d,%d)", r, c)
			}
		}
	}
}

func TestForward3DRoundtrip(t *testing.T) {
	rng := xrand.New(51)
	dims := []int{4, 8, 16}
	x := make([]complex128, dims[0]*dims[1]*dims[2])
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := ForwardND(y, dims, 1); err != nil {
		t.Fatal(err)
	}
	if err := InverseND(y, dims, 1); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("3D roundtrip error at %d", i)
		}
	}
}

func TestForward3DDCBin(t *testing.T) {
	x := make([]complex128, 4*4*4)
	for i := range x {
		x[i] = 3
	}
	if err := ForwardND(x, []int{4, 4, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(3*64, 0)) > 1e-9 {
		t.Fatalf("DC bin %v", x[0])
	}
	for i := 1; i < len(x); i++ {
		if cmplx.Abs(x[i]) > 1e-9 {
			t.Fatalf("non-DC energy at %d", i)
		}
	}
}

func TestForward3DBadShape(t *testing.T) {
	if err := ForwardND(make([]complex128, 9), []int{2, 2, 2}, 1); err == nil {
		t.Fatal("expected length error")
	}
}

func TestForward2DBadShape(t *testing.T) {
	if err := ForwardND(make([]complex128, 7), []int{2, 4}, 1); err == nil {
		t.Fatal("expected length error")
	}
}

// TestPowerSpectrum2D checks |FFT2(x)|²/n of a real field through the
// half-spectrum path: a constant field puts all energy in the DC bin.
func TestPowerSpectrum2D(t *testing.T) {
	dims := []int{4, 4}
	t.Run("f64", func(t *testing.T) { checkConstantPower(t, dims) })
}

func checkConstantPower(t *testing.T, dims []int) {
	x := make([]float64, dims[0]*dims[1])
	for i := range x {
		x[i] = 2
	}
	ps := make([]complex128, HalfLen(dims))
	if err := ForwardRealND(x, dims, dims, ps, 1); err != nil {
		t.Fatal(err)
	}
	AbsSq(ps)
	n := float64(len(x))
	for i, v := range ps {
		want := 0.0
		if i == 0 {
			want = 4 * 16
		}
		if got := real(v) / n; math.Abs(got-want) > 1e-9 {
			t.Fatalf("bin %d power %v, want %v", i, got, want)
		}
	}
}
