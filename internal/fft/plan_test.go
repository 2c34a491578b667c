package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

// naiveIDFT is the O(n²) unnormalized inverse reference (naiveDFT, the
// forward sibling, lives in fft_test.go).
func naiveIDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Exp(complex(0, 2*math.Pi*float64(j)*float64(k)/float64(n)))
		}
		out[k] = s
	}
	return out
}

// planLengths covers both plan kinds: powers of two and 5-smooth
// composites (mixed radix), odd and even, with the tiny edge lengths.
var planLengths = []int{
	1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 25, 27, 30, 32, 45,
	60, 64, 75, 96, 100, 120, 125, 128, 135, 180, 384, 768, 1600,
}

// TestPlanMatchesNaiveDFT pins every plan kind against the O(n²)
// reference, forward and (unnormalized-then-scaled) inverse.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range planLengths {
		if n > 200 {
			continue // naive reference gets slow; round-trip covers these
		}
		x := randComplex(n, uint64(1000+n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := forward1D(got); err != nil {
			t.Fatal(err)
		}
		scale := math.Sqrt(float64(n)) // spectrum magnitudes grow ~ sqrt(n)·|x|
		if d := maxDiff(got, want); d > 1e-9*scale {
			t.Fatalf("n=%d: forward differs from naive DFT by %g", n, d)
		}
		wantInv := naiveIDFT(x)
		for i := range wantInv {
			wantInv[i] /= complex(float64(n), 0)
		}
		gotInv := append([]complex128(nil), x...)
		if err := inverse1D(gotInv); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(gotInv, wantInv); d > 1e-9 {
			t.Fatalf("n=%d: inverse differs from naive inverse DFT by %g", n, d)
		}
	}
}

// TestPlanRoundTrip checks the rank-1 inverse(forward(x)) == x for every plan
// kind, including the large mixed-radix lengths the naive-DFT test
// skips.
func TestPlanRoundTrip(t *testing.T) {
	for _, n := range planLengths {
		x := randComplex(n, uint64(2000+n))
		got := append([]complex128(nil), x...)
		if err := forward1D(got); err != nil {
			t.Fatal(err)
		}
		if err := inverse1D(got); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, x); d > 1e-9 {
			t.Fatalf("n=%d: round trip off by %g", n, d)
		}
	}
}

// TestPlanKinds pins the length → algorithm mapping.
func TestPlanKinds(t *testing.T) {
	cases := []struct {
		n    int
		kind planKind
	}{
		{8, planPow2}, {1024, planPow2},
		{6, planMixed}, {96, planMixed}, {768, planMixed}, {75, planMixed},
		{1600, planMixed},
	}
	for _, tc := range cases {
		if p := planFor(tc.n); p.kind != tc.kind {
			t.Fatalf("planFor(%d).kind = %d, want %d", tc.n, p.kind, tc.kind)
		}
	}
}

// TestFastLen pins the padded-length chooser: even, 5-smooth, minimal.
func TestFastLen(t *testing.T) {
	smooth5 := func(n int) bool {
		for _, f := range []int{2, 3, 5} {
			for n%f == 0 {
				n /= f
			}
		}
		return n == 1
	}
	for n := 1; n <= 2000; n++ {
		m := FastLen(n)
		if m < n && n > 2 {
			t.Fatalf("FastLen(%d) = %d < n", n, m)
		}
		if m%2 != 0 || !smooth5(m) {
			t.Fatalf("FastLen(%d) = %d is not even 5-smooth", n, m)
		}
		for c := n; c < m; c++ {
			if c%2 == 0 && smooth5(c) && c >= n {
				t.Fatalf("FastLen(%d) = %d is not minimal (%d works)", n, m, c)
			}
		}
	}
	for _, tc := range [][2]int{{768, 768}, {770, 800}, {1542, 1600}, {513, 540}} {
		if got := FastLen(tc[0]); got != tc[1] {
			t.Fatalf("FastLen(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

// TestForwardNDAnyLength checks the ND engine on non-power-of-two
// 5-smooth extents (mixed-radix axes, odd and even) through its DC bin
// and a round trip.
func TestForwardNDAnyLength(t *testing.T) {
	for _, dims := range [][]int{{6, 10}, {9, 5}, {15, 25}, {5, 12, 3}, {27, 15}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		x := randComplex(n, uint64(3000+n))
		got := append([]complex128(nil), x...)
		if err := ForwardND(got, dims, 0); err != nil {
			t.Fatal(err)
		}
		// DC bin is the plain sum — a cheap independent check that the
		// axis passes compose.
		var sum complex128
		for _, v := range x {
			sum += v
		}
		if d := cmplx.Abs(got[0] - sum); d > 1e-9*float64(n) {
			t.Fatalf("dims %v: DC bin off by %g", dims, d)
		}
		if err := InverseND(got, dims, 0); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, x); d > 1e-9 {
			t.Fatalf("dims %v: ND round trip off by %g", dims, d)
		}
	}
}

// TestRejectsUnplannedExtents pins the package's extent contract: the
// complex transforms reject an extent with a prime factor above 5, and
// the real transforms also an odd last extent, with an error rather
// than a plan miss.
func TestRejectsUnplannedExtents(t *testing.T) {
	count := func(dims []int) int {
		n := 1
		for _, d := range dims {
			n *= d
		}
		return n
	}
	for _, n := range []int{7, 11, 13} {
		for _, dims := range [][]int{{n}, {4, n}, {n, 6, 2}} {
			x := make([]complex128, count(dims))
			if err := ForwardND(x, dims, 1); err == nil {
				t.Errorf("ForwardND accepted dims %v", dims)
			}
			if err := InverseND(x, dims, 1); err == nil {
				t.Errorf("InverseND accepted dims %v", dims)
			}
		}
	}
	// Odd last extents, and an even one with the factor 7.
	for _, dims := range [][]int{{1}, {9}, {15}, {4, 25}, {6, 2, 3}, {4, 14}} {
		src := make([]float64, count(dims))
		spec := make([]complex128, HalfLen(dims))
		if err := ForwardRealND(src, dims, dims, spec, 1); err == nil {
			t.Errorf("ForwardRealND accepted dims %v", dims)
		}
		if err := InverseRealND(spec, dims, dims[0], src, 1); err == nil {
			t.Errorf("InverseRealND accepted dims %v", dims)
		}
	}
}

// BenchmarkLineFFT times one forward line transform: the 384- and
// 768-point lines of a 512² spectral variogram, a power of two and the
// 5-smooth 1600.
func BenchmarkLineFFT(b *testing.B) {
	b.Run("c128", benchLineFFT)
}

func benchLineFFT(b *testing.B) {
	for _, n := range []int{384, 768, 1024, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := randComplex(n, 9)
			p := planFor(n)
			b.SetBytes(16 * int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.transform(x, false)
			}
		})
	}
}
