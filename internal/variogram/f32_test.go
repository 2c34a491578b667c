package variogram

import (
	"fmt"
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

// TestFFT32MatchesExactScan pins the spectral variogram of a float32
// field against the float64 exact scan over the widened field: pair
// counts exact, Gamma within the float64 engine's 1e-9, and the lane
// bit-identical at any worker count.
func TestFFT32MatchesExactScan(t *testing.T) {
	for ci, tc := range equivalenceCases {
		f32, f64 := randomField32(tc.shape, uint64(1300+ci))
		ex, err := Compute(bg, in64(f64), Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 3, 8} {
			ff, err := Compute(bg, in32(f32), Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, fmt.Sprintf("workers %d", workers), f64, ex, ff)
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

// TestFFT32LargeMean drives the centering path on the float32 lane: a
// field with a DC component ~1e4 times its fluctuation scale, whose
// mean is taken over the float32 samples and subtracted at embed.
func TestFFT32LargeMean(t *testing.T) {
	shape := []int{40, 56}
	rng := xrand.New(42)
	f32 := field.New32(shape...)
	for i := range f32.Data {
		f32.Data[i] = float32(10000 + rng.NormFloat64())
	}
	f64 := f32.Widen()
	ex, err := Compute(bg, in64(f64), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Compute(bg, in32(f32), Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstExact(t, "large mean", f64, ex, ff)
}

// TestFFT32LagBeyondExtent pins the closed-form count at offsets larger
// than an extent: zero pairs, same bins as the direct scan.
func TestFFT32LagBeyondExtent(t *testing.T) {
	f32, f64 := randomField32([]int{8, 64}, 9)
	ex, err := Compute(bg, in64(f64), Options{Exact: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Compute(bg, in32(f32), Options{FFT: true, MaxLag: 16})
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
		ex, err := Compute(bg, in64(f64), opts)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := Compute(bg, in32(f32), opts)
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
	ex, err := LocalRanges(bg, in64(f64), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := LocalRanges(bg, in32(f32), 16, Options{Workers: 3})
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

// BenchmarkVariogramFFT32 is the float32 row of the paired lane
// gauges: same fields (narrowed) and cutoffs as BenchmarkVariogramFFT,
// reporting the transform-plane peak of a float32 run, whose samples
// are widened into the float64 plane.
func BenchmarkVariogramFFT32(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f32, _ := randomField32([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := Compute(bg, in32(f32), Options{FFT: true}); err != nil {
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
		if _, err := Compute(bg, in32(f32), Options{FFT: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
}
