package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"lossycorr/internal/xrand"
)

func randComplex(n int, seed uint64) []complex128 {
	rng := xrand.New(seed)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// naiveND is the separable O(n²)-per-line reference: naiveDFT along
// every line of every axis.
func naiveND(x []complex128, dims []int) []complex128 {
	out := append([]complex128(nil), x...)
	for axis := range dims {
		d := dims[axis]
		stride := 1
		for k := axis + 1; k < len(dims); k++ {
			stride *= dims[k]
		}
		line := make([]complex128, d)
		for l := 0; l < len(out)/d; l++ {
			base := (l/stride)*d*stride + l%stride
			for k := range line {
				line[k] = out[base+k*stride]
			}
			for k, v := range naiveDFT(line) {
				out[base+k*stride] = v
			}
		}
	}
	return out
}

// TestForwardNDMatches2D3D pins the rank-2 and rank-3 ND transforms
// against the separable naive DFT.
func TestForwardNDMatches2D3D(t *testing.T) {
	for _, dims := range [][]int{{16, 32}, {8, 16, 4}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		x := randComplex(n, uint64(len(dims)))
		got := append([]complex128(nil), x...)
		if err := ForwardND(got, dims, 1); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(naiveND(x, dims), got); d > 1e-9*float64(n) {
			t.Fatalf("dims %v: mismatch %g", dims, d)
		}
	}
}

// TestNDRoundTripAndWorkers checks InverseND(ForwardND(x)) == x and
// that every worker count produces bit-identical spectra (line
// transforms write disjoint regions; twiddle tables are shared
// read-only).
func TestNDRoundTripAndWorkers(t *testing.T) {
	for _, dims := range [][]int{{64}, {8, 32}, {4, 8, 16}, {2, 4, 4, 8}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		x := randComplex(n, 7)
		ref := append([]complex128(nil), x...)
		if err := ForwardND(ref, dims, 1); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, 16} {
			got := append([]complex128(nil), x...)
			if err := ForwardND(got, dims, workers); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("dims %v workers %d: spectrum differs at %d", dims, workers, i)
				}
			}
			if err := InverseND(got, dims, workers); err != nil {
				t.Fatal(err)
			}
			if d := maxDiff(got, x); d > 1e-9*float64(n) {
				t.Fatalf("dims %v workers %d: roundtrip error %g", dims, workers, d)
			}
		}
	}
}

func TestNDRejectsBadShapes(t *testing.T) {
	x := make([]complex128, 12)
	if err := ForwardND(x, []int{3, 4}, 1); err != nil {
		t.Fatalf("5-smooth non-power-of-two extents must be accepted: %v", err)
	}
	if err := ForwardND(x, []int{4, 4}, 1); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := ForwardND(x, []int{-3, -4}, 1); err == nil {
		t.Fatal("expected non-positive extent error")
	}
}

// TestComplexPoolReuse checks the buffer pool hands back released
// buffers instead of allocating fresh ones.
func TestComplexPoolReuse(t *testing.T) {
	a := Acquire[complex128](1000) // allocates at exact size, no 1024 rounding
	if len(a) != 1000 || cap(a) < 1000 {
		t.Fatalf("len %d cap %d", len(a), cap(a))
	}
	a[0] = 42
	Release(a)
	// Exact-size caps are filed one bucket down (floor log2) and must be
	// found again by a same-or-smaller request. sync.Pool randomly drops
	// Puts under the race detector, so allow a few attempts (a failed
	// attempt's undersized buffer is deliberately not re-pooled).
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		b := Acquire[complex128](900)
		reused = cap(b) >= 1000
		if reused {
			Release(b)
		} else {
			Release(Acquire[complex128](1000))
		}
	}
	if !reused {
		t.Fatal("pooled buffer never came back")
	}
	if Acquire[complex128](0) != nil {
		t.Fatal("Acquire(0) should be nil")
	}
	Release[complex128](nil) // must not panic

	allocs := testing.AllocsPerRun(100, func() {
		Release(Acquire[complex128](512))
	})
	// One interface-boxing alloc per Put is the sync.Pool floor; a
	// fresh 512-element buffer per run would cost far more.
	if allocs > 2 {
		t.Fatalf("acquire/release allocates %v per cycle", allocs)
	}
}

// TestNextPow2Padding sanity-checks the padding arithmetic the
// variogram engine relies on: NextPow2(d+L) >= d+L keeps circular
// correlation linear for |h| <= L.
func TestNextPow2Padding(t *testing.T) {
	for _, d := range []int{1, 7, 37, 64, 1028} {
		for _, l := range []int{1, 5, 514} {
			p := NextPow2(d + l)
			if p < d+l || !IsPow2(p) {
				t.Fatalf("NextPow2(%d+%d) = %d", d, l, p)
			}
		}
	}
	if math.Abs(float64(NextPow2(1))-1) != 0 {
		t.Fatal("NextPow2(1) != 1")
	}
}
