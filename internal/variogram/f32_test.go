package variogram

import (
	"fmt"
	"math"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// randomField32 narrows randomField's samples, so the float32 lane and
// its float64 oracle see exactly-corresponding values.
func randomField32(shape []int, seed uint64) (*field.Field32, *field.Field) {
	rng := xrand.New(seed)
	f32 := field.New32(shape...)
	for i := range f32.Data {
		f32.Data[i] = float32(rng.NormFloat64())
	}
	return f32, f32.Widen()
}

// TestFFT32MatchesExactScan pins the float32 FFT engine against the
// float64 exact scan over the widened field: pair counts exact (the
// closed-form count removes the narrow-rounding hazard), Gamma within
// float32 transform tolerance, and the lane bit-identical at any
// worker count.
func TestFFT32MatchesExactScan(t *testing.T) {
	for ci, tc := range equivalenceCases {
		f32, f64 := randomField32(tc.shape, uint64(1300+ci))
		ex, err := ComputeField(f64, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 3, 8} {
			ff, err := ComputeField32(f32, Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(ff.H) != len(ex.H) {
				t.Fatalf("shape %v workers %d: %d bins vs exact %d", tc.shape, workers, len(ff.H), len(ex.H))
			}
			for i := range ex.H {
				if ff.N[i] != ex.N[i] {
					t.Fatalf("shape %v workers %d bin h=%v: count %d vs exact %d",
						tc.shape, workers, ex.H[i], ff.N[i], ex.N[i])
				}
				rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
				if rel > 5e-4 {
					t.Fatalf("shape %v workers %d bin h=%v: gamma %v vs exact %v (rel %g)",
						tc.shape, workers, ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
				}
			}
			if ref == nil {
				ref = ff
			} else {
				for i := range ref.Gamma {
					if ff.Gamma[i] != ref.Gamma[i] {
						t.Fatalf("shape %v workers %d: nondeterministic gamma at bin %d", tc.shape, workers, i)
					}
				}
			}
		}
	}
}

// TestFFT32LargeMean drives the centering path: a field with a DC
// component ~1e4 times its fluctuation scale would lose most float32
// significand bits in |Z|² without mean subtraction.
func TestFFT32LargeMean(t *testing.T) {
	shape := []int{40, 56}
	rng := xrand.New(42)
	f32 := field.New32(shape...)
	for i := range f32.Data {
		f32.Data[i] = float32(10000 + rng.NormFloat64())
	}
	ex, err := ComputeField(f32.Widen(), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ComputeField32(f32, Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex.H {
		if ff.N[i] != ex.N[i] {
			t.Fatalf("bin h=%v: count %d vs exact %d", ex.H[i], ff.N[i], ex.N[i])
		}
		rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
		if rel > 2e-3 {
			t.Fatalf("bin h=%v: gamma %v vs exact %v (rel %g)", ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
		}
	}
}

// TestFFT32LagBeyondExtent pins the closed-form count at offsets larger
// than an extent: zero pairs, same bins as the direct scan.
func TestFFT32LagBeyondExtent(t *testing.T) {
	f32, f64 := randomField32([]int{8, 64}, 9)
	ex, err := ComputeField(f64, Options{Exact: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ComputeField32(f32, Options{FFT: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.H) != len(ex.H) {
		t.Fatalf("%d bins vs exact %d", len(ff.H), len(ex.H))
	}
	for i := range ex.H {
		if ff.N[i] != ex.N[i] {
			t.Fatalf("bin h=%v: count %d vs exact %d", ex.H[i], ff.N[i], ex.N[i])
		}
	}
}

// TestDirectScans32MatchOracle pins the float32 exact and sampled
// scans bit-identical to the float64 oracle over the widened field:
// widening is exact and both lanes accumulate in float64, so even the
// Monte Carlo path (same seed, same draw order) must agree bitwise.
func TestDirectScans32MatchOracle(t *testing.T) {
	f32, f64 := randomField32([]int{70, 70}, 21)
	for _, opts := range []Options{
		{Exact: true, MaxLag: 11},
		{Seed: 5, MaxPairs: 20000},
	} {
		ex, err := ComputeField(f64, opts)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := ComputeField32(f32, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ff.H) != len(ex.H) {
			t.Fatalf("opts %+v: %d bins vs %d", opts, len(ff.H), len(ex.H))
		}
		for i := range ex.H {
			if ff.N[i] != ex.N[i] || ff.Gamma[i] != ex.Gamma[i] {
				t.Fatalf("opts %+v bin h=%v: (%v, %d) vs oracle (%v, %d)",
					opts, ex.H[i], ff.Gamma[i], ff.N[i], ex.Gamma[i], ex.N[i])
			}
		}
	}
}

// TestLocalRanges32MatchOracle pins the widened-window path: local
// ranges of the float32 lane equal the float64 oracle's over the
// widened field bitwise (the per-window solves are the same code on
// the same values).
func TestLocalRanges32MatchOracle(t *testing.T) {
	f32, f64 := randomField32([]int{64, 48}, 33)
	ex, err := LocalRangesField(f64, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := LocalRangesField32(f32, 16, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff) != len(ex) {
		t.Fatalf("%d windows vs %d", len(ff), len(ex))
	}
	for i := range ex {
		if ff[i] != ex[i] {
			t.Fatalf("window %d: range %v vs oracle %v", i, ff[i], ex[i])
		}
	}
}

// TestFFT32PoisonedPools re-runs the float32 equivalence suite with
// the float32-lane pool buckets — and the float64 real buckets the
// summed-area table comes from — pre-filled with NaN-poisoned buffers,
// extending TestFFTPoisonedPools' no-assumed-zero contract to the lane.
func TestFFT32PoisonedPools(t *testing.T) {
	poison := func(maxElems int) {
		poisonPools(maxElems)
		const perBucket = 6
		for n := 1; n <= maxElems; n *= 2 {
			cbufs := make([][]complex64, perBucket)
			rbufs := make([][]float32, perBucket)
			for i := 0; i < perBucket; i++ {
				c := fft.AcquireComplex64(n)
				for j := range c {
					c[j] = complex(float32(math.NaN()), float32(math.NaN()))
				}
				cbufs[i] = c
				r := fft.AcquireReal32(n)
				for j := range r {
					r[j] = float32(math.NaN())
				}
				rbufs[i] = r
			}
			for i := 0; i < perBucket; i++ {
				fft.ReleaseComplex64(cbufs[i])
				fft.ReleaseReal32(rbufs[i])
			}
		}
	}
	for ci, tc := range equivalenceCases {
		f32, f64 := randomField32(tc.shape, uint64(1700+ci))
		ex, err := ComputeField(f64, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		poison(1 << 18)
		ff, err := ComputeField32(f32, Options{FFT: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ex.H {
			if ff.N[i] != ex.N[i] {
				t.Fatalf("poisoned shape %v bin h=%v: count %d vs exact %d", tc.shape, ex.H[i], ff.N[i], ex.N[i])
			}
			rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
			if rel > 5e-4 {
				t.Fatalf("poisoned shape %v bin h=%v: gamma rel %g", tc.shape, ex.H[i], rel)
			}
		}

		orig := padLenFn
		padLenFn = func(n int) int { return n }
		poison(1 << 18)
		fb, err := ComputeField32(f32, Options{FFT: true, MaxLag: tc.maxLag})
		padLenFn = orig
		if err != nil {
			t.Fatal(err)
		}
		for i := range ex.H {
			if fb.N[i] != ex.N[i] {
				t.Fatalf("poisoned-bluestein shape %v bin h=%v: count %d vs exact %d", tc.shape, ex.H[i], fb.N[i], ex.N[i])
			}
			rel := math.Abs(fb.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
			if rel > 2e-3 {
				t.Fatalf("poisoned-bluestein shape %v bin h=%v: gamma rel %g", tc.shape, ex.H[i], rel)
			}
		}
	}
}

// BenchmarkVariogramFFT32 is the float32 row of the paired lane
// gauges: same fields (narrowed) and cutoffs as BenchmarkVariogramFFT,
// reporting the float32 engine's transform-plane peak.
func BenchmarkVariogramFFT32(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f32, _ := randomField32([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := ComputeField32(f32, Options{FFT: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
		})
	}
}

func BenchmarkVariogramFFT32_3D(b *testing.B) {
	f32, _ := randomField32([]int{64, 64, 64}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.ResetPeakBytes()
		if _, err := ComputeField32(f32, Options{FFT: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
}
