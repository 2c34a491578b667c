package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"lossycorr/internal/xrand"
)

func randReal(n int, seed uint64) []float64 {
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// realShapes exercises even last axes whose half-length is a power of
// two, odd (10, 30, 50) or an even composite, over both plan kinds per
// leading axis, unit axes included, across ranks 1–3.
var realShapes = [][]int{
	{8}, {10}, {2}, {50}, {30}, {24},
	{4, 8}, {6, 10}, {5, 6}, {9, 12}, {15, 20}, {3, 2}, {1, 10}, {12, 10},
	{4, 6, 10}, {3, 5, 6}, {2, 3, 4}, {5, 9, 18},
}

// TestForwardRealNDMatchesComplex pins the half-spectrum forward
// against the full complex ND transform: every stored bin must equal
// the corresponding full-spectrum bin.
func TestForwardRealNDMatchesComplex(t *testing.T) {
	for _, dims := range realShapes {
		total := 1
		for _, d := range dims {
			total *= d
		}
		src := randReal(total, uint64(100+total))

		full := make([]complex128, total)
		for i, v := range src {
			full[i] = complex(v, 0)
		}
		if err := ForwardND(full, dims, 0); err != nil {
			t.Fatal(err)
		}

		half := make([]complex128, HalfLen(dims))
		// Poison the destination: ForwardRealND must overwrite fully.
		for i := range half {
			half[i] = cmplx.Inf()
		}
		if err := ForwardRealND(src, dims, dims, half, 0); err != nil {
			t.Fatal(err)
		}

		nx := dims[len(dims)-1]
		hc := nx/2 + 1
		lines := total / nx
		for li := 0; li < lines; li++ {
			for k := 0; k < hc; k++ {
				want := full[li*nx+k]
				got := half[li*hc+k]
				if d := cmplx.Abs(got - want); d > 1e-9*float64(total) {
					t.Fatalf("dims %v line %d bin %d: %v vs %v (|d|=%g)", dims, li, k, got, want, d)
				}
			}
		}
	}
}

// TestRealNDRoundTrip checks InverseRealND(ForwardRealND(x)) == x to
// roundoff for every shape, and that both directions are bit-identical
// at any worker count.
func TestRealNDRoundTrip(t *testing.T) {
	t.Run("f64", func(t *testing.T) { checkRealRoundTrip(t, 1e-9) })
}

func checkRealRoundTrip(t *testing.T, tol float64) {
	for _, dims := range realShapes {
		total := 1
		for _, d := range dims {
			total *= d
		}
		src := randReal(total, uint64(200+total))
		var refSpec []complex128
		var refOut []float64
		for _, workers := range []int{1, 3, 8} {
			spec := Acquire[complex128](HalfLen(dims))
			if err := ForwardRealND(src, dims, dims, spec, workers); err != nil {
				t.Fatal(err)
			}
			specCopy := append([]complex128(nil), spec...)
			out := make([]float64, total)
			if err := InverseRealND(spec, dims, dims[0], out, workers); err != nil {
				t.Fatal(err)
			}
			Release(spec)
			for i := range out {
				if d := math.Abs(out[i] - src[i]); d > tol {
					t.Fatalf("dims %v workers %d: round trip off by %g at %d", dims, workers, d, i)
				}
			}
			if refSpec == nil {
				refSpec, refOut = specCopy, out
				continue
			}
			for i := range specCopy {
				if specCopy[i] != refSpec[i] {
					t.Fatalf("dims %v workers %d: nondeterministic spectrum at %d", dims, workers, i)
				}
			}
			for i := range out {
				if out[i] != refOut[i] {
					t.Fatalf("dims %v workers %d: nondeterministic inverse at %d", dims, workers, i)
				}
			}
		}
	}
}

// TestRealNDAutocorrelation checks the end-to-end identity the
// variogram engine relies on: AbsSq of the half-spectrum followed by a
// real inverse is the circular autocorrelation, on a shape with an odd
// leading extent as well as an even one.
func TestRealNDAutocorrelation(t *testing.T) {
	for _, dims := range [][]int{{6, 10}, {15, 6}} {
		total := dims[0] * dims[1]
		src := randReal(total, uint64(300+total))
		spec := make([]complex128, HalfLen(dims))
		if err := ForwardRealND(src, dims, dims, spec, 0); err != nil {
			t.Fatal(err)
		}
		AbsSq(spec)
		got := make([]float64, total)
		if err := InverseRealND(spec, dims, dims[0], got, 0); err != nil {
			t.Fatal(err)
		}
		// Direct circular autocorrelation.
		ny, nx := dims[0], dims[1]
		for hy := 0; hy < ny; hy++ {
			for hx := 0; hx < nx; hx++ {
				var want float64
				for y := 0; y < ny; y++ {
					for x := 0; x < nx; x++ {
						want += src[y*nx+x] * src[((y+hy)%ny)*nx+(x+hx)%nx]
					}
				}
				if d := got[hy*nx+hx] - want; d > 1e-8 || d < -1e-8 {
					t.Fatalf("dims %v lag (%d,%d): %g vs %g", dims, hy, hx, got[hy*nx+hx], want)
				}
			}
		}
	}
}

// TestMulConjCrossCorrelation checks the conj-multiply helper gives the
// cross-correlation c_ab(h) = Σ_x a(x)·b(x+h) through the real engine.
func TestMulConjCrossCorrelation(t *testing.T) {
	dims := []int{5, 8}
	total := dims[0] * dims[1]
	a := randReal(total, 41)
	b := randReal(total, 43)
	sa := make([]complex128, HalfLen(dims))
	sb := make([]complex128, HalfLen(dims))
	if err := ForwardRealND(a, dims, dims, sa, 0); err != nil {
		t.Fatal(err)
	}
	if err := ForwardRealND(b, dims, dims, sb, 0); err != nil {
		t.Fatal(err)
	}
	MulConj(sa, sb)
	got := make([]float64, total)
	if err := InverseRealND(sa, dims, dims[0], got, 0); err != nil {
		t.Fatal(err)
	}
	ny, nx := dims[0], dims[1]
	for hy := 0; hy < ny; hy++ {
		for hx := 0; hx < nx; hx++ {
			var want float64
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					want += a[y*nx+x] * b[((y+hy)%ny)*nx+(x+hx)%nx]
				}
			}
			if d := got[hy*nx+hx] - want; d > 1e-8 || d < -1e-8 {
				t.Fatalf("lag (%d,%d): %g vs %g", hy, hx, got[hy*nx+hx], want)
			}
		}
	}
}

// TestHalfLen pins the half-spectrum sizing.
func TestHalfLen(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{8}, 5}, {[]int{10}, 6}, {[]int{4, 8}, 20},
		{[]int{3, 5, 6}, 60}, {nil, 0},
	}
	for _, tc := range cases {
		if got := HalfLen(tc.dims); got != tc.want {
			t.Fatalf("HalfLen(%v) = %d, want %d", tc.dims, got, tc.want)
		}
	}
}

// BenchmarkRealND is the transform layer beneath BenchmarkVariogramFFT:
// one forward and one inverse real transform over the padded planes of
// the 512² field (768², FastLen(512+256)) and the 64³ volume (96³).
func BenchmarkRealND(b *testing.B) {
	b.Run("f64", benchRealND)
}

func benchRealND(b *testing.B) {
	for _, dims := range [][]int{{768, 768}, {96, 96, 96}} {
		name := fmt.Sprint(dims[0])
		for _, d := range dims[1:] {
			name += fmt.Sprintf("x%d", d)
		}
		b.Run(name, func(b *testing.B) {
			total := 1
			for _, d := range dims {
				total *= d
			}
			src := randReal(total, 5)
			spec := make([]complex128, HalfLen(dims))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ForwardRealND(src, dims, dims, spec, 0); err != nil {
					b.Fatal(err)
				}
				if err := InverseRealND(spec, dims, dims[0], src, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
