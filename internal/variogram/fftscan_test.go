package variogram

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

func randomField(shape []int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// TestFFTMatchesExactScan is the fast path's pinned equivalence: across
// ranks, odd (non-power-of-two) extents, lag cutoffs, and worker
// counts, the FFT engine must reproduce the direct scan's pair counts
// exactly and its Gamma values to 1e-9 relative.
func TestFFTMatchesExactScan(t *testing.T) {
	cases := []struct {
		shape  []int
		maxLag int
	}{
		{[]int{37, 53}, 0},
		{[]int{64, 64}, 0},
		{[]int{96, 40}, 13},
		{[]int{17, 19, 23}, 0},
		{[]int{24, 24, 24}, 7},
	}
	for ci, tc := range cases {
		f := randomField(tc.shape, uint64(100+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 3, 8} {
			ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
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
				if rel > 1e-9 {
					t.Fatalf("shape %v workers %d bin h=%v: gamma %v vs exact %v (rel %g)",
						tc.shape, workers, ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
				}
			}
			// The FFT path itself is bit-identical at any worker count.
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

// TestFFTLagBeyondExtent covers offsets larger than an extent: the
// direct scan skips them (no valid base points) and the FFT engine's
// closed-form count must give them zero pairs, leaving the binned
// results identical.
func TestFFTLagBeyondExtent(t *testing.T) {
	f := randomField([]int{8, 64}, 9)
	ex, err := ComputeField(f, Options{Exact: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ComputeField(f, Options{FFT: true, MaxLag: 16})
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

// TestFFTGlobalRangeField checks the option threads through the fitted
// model entry point and lands near the direct estimate.
func TestFFTGlobalRangeField(t *testing.T) {
	f := randomField([]int{48, 48}, 3)
	mEx, err := GlobalRangeField(f, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	mFF, err := GlobalRangeField(f, Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mFF.Range-mEx.Range) / mEx.Range; rel > 1e-6 {
		t.Fatalf("fitted range %v vs exact %v (rel %g)", mFF.Range, mEx.Range, rel)
	}
}

// TestFFTConstantField covers the roundoff clamp: a constant field has
// zero semi-variance in every bin, which the cancellation between the
// box sums and 2·c_zz(h) must not turn negative.
func TestFFTConstantField(t *testing.T) {
	f := field.New(20, 20)
	for i := range f.Data {
		f.Data[i] = 4.5
	}
	ff, err := ComputeField(f, Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ff.Gamma {
		if g < 0 || g > 1e-12 {
			t.Fatalf("bin h=%v: gamma %v, want 0", ff.H[i], g)
		}
	}
}

// equivalenceCases are the shapes/cutoffs shared by the engine
// equivalence tests below.
var equivalenceCases = []struct {
	shape  []int
	maxLag int
}{
	{[]int{37, 53}, 0},
	{[]int{64, 64}, 0},
	{[]int{96, 40}, 13},
	{[]int{17, 19, 23}, 0},
	{[]int{24, 24, 24}, 7},
}

func checkAgainstExact(t *testing.T, label string, f *field.Field, ex, ff *Empirical) {
	t.Helper()
	if len(ff.H) != len(ex.H) {
		t.Fatalf("%s shape %v: %d bins vs exact %d", label, f.Shape, len(ff.H), len(ex.H))
	}
	for i := range ex.H {
		if ff.N[i] != ex.N[i] {
			t.Fatalf("%s shape %v bin h=%v: count %d vs exact %d",
				label, f.Shape, ex.H[i], ff.N[i], ex.N[i])
		}
		rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
		if rel > 1e-9 {
			t.Fatalf("%s shape %v bin h=%v: gamma %v vs exact %v (rel %g)",
				label, f.Shape, ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
		}
	}
}

// TestFFTBluesteinPadding drives the full engine through exact
// (non-smooth, often odd) padded extents: with padLenFn forced to
// identity, pad = dim + MaxLag exactly, which for these shapes puts
// Bluestein (and odd-length real-transform) plans on every axis. The
// equivalence contract is unchanged: pair counts exact, Gamma <= 1e-9.
func TestFFTBluesteinPadding(t *testing.T) {
	orig := padLenFn
	padLenFn = func(n int) int { return n }
	defer func() { padLenFn = orig }()

	for ci, tc := range equivalenceCases {
		f := randomField(tc.shape, uint64(500+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 4} {
			ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, "bluestein", f, ex, ff)
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

// withOffset returns a copy of f with off added to every sample.
func withOffset(f *field.Field, off float64) *field.Field {
	g := field.New(f.Shape...)
	for i, v := range f.Data {
		g.Data[i] = v + off
	}
	return g
}

// TestFFTDCOffset pins the spectral engines' accuracy contract on a
// unit-variance field under a constant offset: the transforms must not
// see the DC mass, or it cancels in S(h) and takes the low bits of
// Gamma with it. The in-RAM engine holds the 1e-9 equivalence bound at
// every offset; the streamed engine, at a one-shard and a multi-shard
// budget, holds 1e-6.
func TestFFTDCOffset(t *testing.T) {
	ctx := context.Background()
	base := randomField([]int{64, 72}, 4242)
	if shard, err := fftShardSize(base.Shape, 32, 1<<20); err != nil || shard >= 64 {
		t.Fatalf("1 MiB budget: shard extent %d (%v), want a split of the 64 rows", shard, err)
	}
	for _, off := range []float64{0, 1e3, 1e5, 1e7} {
		f := withOffset(base, off)
		ex, err := ComputeField(f, Options{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		ff, err := ComputeField(f, Options{FFT: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, fmt.Sprintf("offset %g", off), f, ex, ff)

		tr := writeTempField(t, f.WriteBinary)
		// 0 is one shard; 1 MiB splits the rows (checked above).
		for _, budget := range []int64{0, 1 << 20} {
			st, err := ComputeReaderCtx(ctx, tr, Options{FFT: true}, field.StreamOptions{BudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ex.H {
				if st.N[i] != ex.N[i] {
					t.Fatalf("offset %g budget %d bin h=%v: count %d vs exact %d", off, budget, ex.H[i], st.N[i], ex.N[i])
				}
				if rel := math.Abs(st.Gamma[i]-ex.Gamma[i]) / ex.Gamma[i]; rel > 1e-6 {
					t.Fatalf("offset %g budget %d bin h=%v: gamma %v vs exact %v (rel %g)",
						off, budget, ex.H[i], st.Gamma[i], ex.Gamma[i], rel)
				}
			}
		}
	}
}

// TestFFTLaneDifferential runs the one engine's two lanes on the same
// values — the float64 lane over the exactly widened field against the
// float32 lane — across ranks, odd extents, worker counts, and exact
// (Bluestein) padding. Pair counts must be equal and Gamma within the
// float32 lane's existing tolerances: 5e-4 relative on FastLen padding,
// 2e-3 on exact padding.
func TestFFTLaneDifferential(t *testing.T) {
	for _, pm := range []struct {
		name string
		fn   func(int) int
		tol  float64
	}{
		{"fastlen", fft.FastLen, 5e-4},
		{"exact", func(n int) int { return n }, 2e-3},
	} {
		t.Run(pm.name, func(t *testing.T) {
			orig := padLenFn
			padLenFn = pm.fn
			defer func() { padLenFn = orig }()
			for ci, tc := range equivalenceCases {
				f32, f64 := randomField32(tc.shape, uint64(2100+ci))
				for _, workers := range []int{1, 4} {
					o := Options{FFT: true, MaxLag: tc.maxLag, Workers: workers}
					wide, err := ComputeField(f64, o)
					if err != nil {
						t.Fatal(err)
					}
					narrow, err := ComputeField32(f32, o)
					if err != nil {
						t.Fatal(err)
					}
					if len(narrow.H) != len(wide.H) {
						t.Fatalf("shape %v workers %d: %d bins vs %d", tc.shape, workers, len(narrow.H), len(wide.H))
					}
					for i := range wide.H {
						if narrow.N[i] != wide.N[i] {
							t.Fatalf("shape %v workers %d bin h=%v: count %d vs float64 lane %d",
								tc.shape, workers, wide.H[i], narrow.N[i], wide.N[i])
						}
						if rel := math.Abs(narrow.Gamma[i]-wide.Gamma[i]) / wide.Gamma[i]; rel > pm.tol {
							t.Fatalf("shape %v workers %d bin h=%v: gamma %v vs float64 lane %v (rel %g)",
								tc.shape, workers, wide.H[i], narrow.Gamma[i], wide.Gamma[i], rel)
						}
					}
				}
			}
		})
	}
}

// poisonPools floods every pool bucket the engine will draw from with
// NaN-poisoned buffers, so any code path that assumes zeroed scratch
// turns into a hard test failure (NaN propagates into Gamma or the
// pair counts).
func poisonPools(maxElems int) {
	const perBucket = 6
	for n := 1; n <= maxElems; n *= 2 {
		cbufs := make([][]complex128, perBucket)
		rbufs := make([][]float64, perBucket)
		for i := 0; i < perBucket; i++ {
			c := fft.AcquireComplex(n)
			for j := range c {
				c[j] = complex(math.NaN(), math.NaN())
			}
			cbufs[i] = c
			r := fft.AcquireReal(n)
			for j := range r {
				r[j] = math.NaN()
			}
			rbufs[i] = r
		}
		for i := 0; i < perBucket; i++ {
			fft.ReleaseComplex(cbufs[i])
			fft.ReleaseReal(rbufs[i])
		}
	}
}

// TestFFTPoisonedPools re-runs the 2D/3D equivalence suite with every
// pool bucket pre-filled with NaN-poisoned buffers: AcquireComplex/
// AcquireReal return unspecified contents, and the engine must
// overwrite every element it reads (padding fill, spectrum stages, and
// the summed-area table, which is an AcquireReal buffer) rather than
// assume zeroed scratch.
func TestFFTPoisonedPools(t *testing.T) {
	for ci, tc := range equivalenceCases {
		f := randomField(tc.shape, uint64(900+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		poisonPools(1 << 18)
		ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, "poisoned", f, ex, ff)

		// The Bluestein/odd-length paths have their own scratch
		// handling; poison them too.
		orig := padLenFn
		padLenFn = func(n int) int { return n }
		poisonPools(1 << 18)
		fb, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag})
		padLenFn = orig
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, "poisoned-bluestein", f, ex, fb)
	}
}

// TestFFTMemorySmoke pins FFTPeakBytes as the engine's transform
// working set on both lanes: on a 512² field (default cutoff 256) the
// measured pool peak stays within the formula, first on a drained pool
// (every buffer a fresh exact-size allocation) and then warm, with the
// engine's own buffers recycled.
func TestFFTMemorySmoke(t *testing.T) {
	f32, f := randomField32([]int{512, 512}, 77)
	for _, lane := range []struct {
		name      string
		elemBytes int
		run       func() error
	}{
		{"float64", 8, func() error { _, err := ComputeField(f, Options{FFT: true}); return err }},
		{"float32", 4, func() error { _, err := ComputeField32(f32, Options{FFT: true}); return err }},
	} {
		want := FFTPeakBytes(f.Shape, 256, lane.elemBytes)
		// Two collections empty every sync.Pool, buckets included.
		runtime.GC()
		runtime.GC()
		for _, pass := range []string{"cold", "warm"} {
			fft.ResetPeakBytes()
			base := fft.LiveBytes()
			if err := lane.run(); err != nil {
				t.Fatal(err)
			}
			peak := fft.PeakBytes() - base
			t.Logf("%s %s: peak %d bytes (%.2f MiB), FFTPeakBytes %d (%.2f MiB)",
				lane.name, pass, peak, float64(peak)/(1<<20), want, float64(want)/(1<<20))
			if peak > want {
				t.Fatalf("%s %s: peak transform-buffer bytes %d > FFTPeakBytes %d", lane.name, pass, peak, want)
			}
		}
	}
}

// TestScanOffsetAllocs pins the zero-allocation contract of the direct
// scan's inner loop: with the per-bin scratch hoisted out, a scanOffset
// visit allocates nothing.
func TestScanOffsetAllocs(t *testing.T) {
	f := randomField([]int{32, 32}, 5)
	dims := f.Shape
	strides := f.Strides()
	sc := newScanScratch(2)
	off := []int32{3, -2}
	var sum float64
	var cnt int64
	allocs := testing.AllocsPerRun(200, func() {
		scanOffset(f.Data, dims, strides, off, sc, &sum, &cnt)
	})
	if allocs != 0 {
		t.Fatalf("scanOffset allocates %v per visit, want 0", allocs)
	}
}

// ---- benchmarks -------------------------------------------------------------

// benchScanSizes are the 2D edges the Exact/FFT benchmark pair sweeps.
// The paper-scale 1028² case joins only when LOSSYCORR_N >= 1028 — a
// single exact scan at that size takes minutes, which has no place in a
// CI smoke run.
func benchScanSizes() []int {
	sizes := []int{128, 512}
	if s := os.Getenv("LOSSYCORR_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1028 {
			sizes = append(sizes, 1028)
		}
	}
	return sizes
}

// BenchmarkVariogramExact measures the direct O(N·L²) global scan.
func BenchmarkVariogramExact(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := randomField([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeField(f, Options{Exact: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVariogramFFT measures the FFT exact engine's float64 lane on
// the same fields; the ns/op ratio against BenchmarkVariogramExact is
// the speedup the perf record tracks, and fftPeakMB the transform-pool
// peak of the last run.
func BenchmarkVariogramFFT(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := randomField([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := ComputeField(f, Options{FFT: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
		})
	}
}

// BenchmarkVariogramExact3D / BenchmarkVariogramFFT3D are the rank-3
// pair on a 64³ volume.
func BenchmarkVariogramExact3D(b *testing.B) {
	f := randomField([]int{64, 64, 64}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeField(f, Options{Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariogramFFT3D(b *testing.B) {
	f := randomField([]int{64, 64, 64}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.ResetPeakBytes()
		if _, err := ComputeField(f, Options{FFT: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
}
