package variogram

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
)

var bg = context.Background()

// in64, in32 and onDisk wrap an in-RAM field of either lane, or an
// out-of-core reader, as a statistic source.
func in64(f *field.Field) stat.Source   { return stat.Source{F64: f} }
func in32(f *field.Field32) stat.Source { return stat.Source{F32: f} }
func onDisk(tr *field.TileReader, so field.StreamOptions) stat.Source {
	return stat.Source{Reader: tr, Stream: so}
}

// gaussField draws a seeded 2D Gaussian field.
func gaussField(t *testing.T, p gaussian.Params) *field.Field {
	t.Helper()
	g, err := gaussian.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func whiteNoise(rows, cols int, seed uint64) *field.Field {
	return randomField([]int{rows, cols}, seed)
}

func TestComputeTooSmall(t *testing.T) {
	if _, err := Compute(bg, in64(field.New(1, 1)), Options{}); err == nil {
		t.Fatal("expected error for 1x1 field")
	}
	if _, err := Compute(bg, stat.Source{}, Options{}); err == nil {
		t.Fatal("expected error for an empty source")
	}
}

func TestWhiteNoiseFlatVariogram(t *testing.T) {
	g := whiteNoise(64, 64, 1)
	e, err := Compute(bg, in64(g), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	// for iid noise γ(h) ≈ variance at every lag
	v := g.Summary().Variance
	for i, h := range e.H {
		if math.Abs(e.Gamma[i]-v) > 0.2*v {
			t.Fatalf("γ(%v)=%v far from variance %v", h, e.Gamma[i], v)
		}
	}
}

func TestEmpiricalMatchesTheoryOnGaussianField(t *testing.T) {
	const rang = 8.0
	f := gaussField(t, gaussian.Params{Rows: 96, Cols: 96, Range: rang, Seed: 5})
	e, err := Compute(bg, in64(f), Options{Exact: true, MaxLag: 24})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range e.H {
		if h < 2 || h > 12 {
			continue
		}
		want := gaussian.TheoreticalVariogram(h, rang, 1)
		if math.Abs(e.Gamma[i]-want) > 0.45*want+0.05 {
			t.Fatalf("γ(%v)=%v want ≈%v", h, e.Gamma[i], want)
		}
	}
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	// exact model data: fit must recover sill and range closely
	truth := Model{Sill: 2.5, Range: 7}
	e := &Empirical{}
	for h := 1.0; h <= 30; h++ {
		e.H = append(e.H, h)
		e.Gamma = append(e.Gamma, truth.Gamma(h))
		e.N = append(e.N, 1000)
	}
	m, err := Fit(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Sill-truth.Sill) > 0.01 || math.Abs(m.Range-truth.Range) > 0.05 {
		t.Fatalf("fit %+v want %+v", m, truth)
	}
	if math.Abs(m.RangePaper-m.Range*m.Range) > 1e-9 {
		t.Fatalf("RangePaper inconsistent: %v vs %v", m.RangePaper, m.Range*m.Range)
	}
}

func TestFitTooFewBins(t *testing.T) {
	if _, err := Fit(&Empirical{H: []float64{1}, Gamma: []float64{1}, N: []int64{1}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestGlobalRangeRecoversGeneratingRange(t *testing.T) {
	for _, rang := range []float64{4, 10} {
		f := gaussField(t, gaussian.Params{Rows: 128, Cols: 128, Range: rang, Seed: uint64(rang)})
		m, err := GlobalRange(bg, in64(f), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m.Range < rang*0.6 || m.Range > rang*1.6 {
			t.Fatalf("range %v: estimated %v outside tolerance", rang, m.Range)
		}
	}
}

func TestGlobalRangeOrdering(t *testing.T) {
	// larger generating range must yield larger estimated range
	est := make([]float64, 0, 3)
	for _, rang := range []float64{3, 9, 27} {
		f := gaussField(t, gaussian.Params{Rows: 128, Cols: 128, Range: rang, Seed: 77})
		m, err := GlobalRange(bg, in64(f), Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		est = append(est, m.Range)
	}
	if !(est[0] < est[1] && est[1] < est[2]) {
		t.Fatalf("estimated ranges not ordered: %v", est)
	}
}

func TestSampledMatchesExact(t *testing.T) {
	f := gaussField(t, gaussian.Params{Rows: 80, Cols: 80, Range: 6, Seed: 9})
	exact, err := Compute(bg, in64(f), Options{Exact: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Compute(bg, in64(f), Options{MaxLag: 16, MaxPairs: 600000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mE, err := Fit(exact)
	if err != nil {
		t.Fatal(err)
	}
	mS, err := Fit(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mE.Range-mS.Range) > 0.35*mE.Range {
		t.Fatalf("sampled range %v vs exact %v", mS.Range, mE.Range)
	}
}

func TestModelGammaZeroRange(t *testing.T) {
	m := Model{Sill: 3}
	if m.Gamma(5) != 3 {
		t.Fatalf("degenerate model γ=%v", m.Gamma(5))
	}
}

func TestLocalRangesHeterogeneousField(t *testing.T) {
	// left half smooth (long range), right half rough: local ranges must
	// spread more than on a homogeneous field
	smooth := gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 12, Seed: 1})
	rough := whiteNoise(64, 64, 2)
	mixed := field.New(64, 64)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if c < 32 {
				mixed.Set(smooth.At(r, c), r, c)
			} else {
				mixed.Set(rough.At(r, c), r, c)
			}
		}
	}
	stdMixed, err := LocalRangeStd(bg, in64(mixed), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stdSmooth, err := LocalRangeStd(bg, in64(smooth), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stdMixed <= stdSmooth {
		t.Fatalf("heterogeneous std %v not above homogeneous %v", stdMixed, stdSmooth)
	}
}

func TestLocalRangesCount(t *testing.T) {
	f := gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 6, Seed: 3})
	ranges, err := LocalRanges(bg, in64(f), 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 4 {
		t.Fatalf("expected 4 windows, got %d", len(ranges))
	}
}

func TestLocalRangesWindowTooSmall(t *testing.T) {
	if _, err := LocalRanges(bg, in64(field.New(8, 8)), 2, Options{}); err == nil {
		t.Fatal("expected window error")
	}
}

func TestLocalRangeStdConstantField(t *testing.T) {
	if _, err := LocalRangeStd(bg, in64(field.New(64, 64)), 32, Options{}); err == nil {
		t.Fatal("constant field has no usable windows; expected error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults([]int{10, 20})
	if o.MaxLag != 5 {
		t.Fatalf("default MaxLag %d want 5", o.MaxLag)
	}
	if o.MaxPairs != 400000 {
		t.Fatalf("default MaxPairs %d", o.MaxPairs)
	}
}

// TestMaxLagClampedToDiagonal: a cutoff past the field's diagonal is
// clamped to the smallest L with L² ≥ Σ(dim_k−1)² — 56 on a 40×40
// field — so an oversized MaxLag costs what L costs. The exact scan is
// bit-identical to an explicit lag of L, the spectral engine's pair
// counts are the exact scan's, the sampler draws as at L, and all of
// them return well inside a deadline at lags whose unclamped bin
// arrays alone would not fit in memory.
func TestMaxLagClampedToDiagonal(t *testing.T) {
	for _, tc := range []struct {
		shape []int
		want  int
	}{
		{[]int{40, 40}, 56},
		{[]int{2}, 1},
		{[]int{20, 1, 30}, 35},
		{[]int{5, 5, 5}, 7},
	} {
		if got := (Options{MaxLag: 5000}).withDefaults(tc.shape).MaxLag; got != tc.want {
			t.Fatalf("shape %v: clamped MaxLag %d, want %d", tc.shape, got, tc.want)
		}
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	f := randomField([]int{40, 40}, 61)
	ref, err := Compute(ctx, in64(f), Options{Exact: true, MaxLag: 56})
	if err != nil {
		t.Fatal(err)
	}
	big := randomField([]int{90, 90}, 62)
	refSampled, err := Compute(ctx, in64(big), Options{MaxLag: 126, Seed: 3, MaxPairs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, lag := range []int{5000, 1 << 40} {
		ex, err := Compute(ctx, in64(f), Options{Exact: true, MaxLag: lag})
		if err != nil {
			t.Fatalf("exact lag %d: %v", lag, err)
		}
		assertEmpiricalEqual(t, ex, ref)
		ff, err := Compute(ctx, in64(f), Options{FFT: true, MaxLag: lag})
		if err != nil {
			t.Fatalf("spectral lag %d: %v", lag, err)
		}
		checkAgainstExact(t, fmt.Sprintf("lag %d", lag), f, ref, ff)
		sm, err := Compute(ctx, in64(big), Options{MaxLag: lag, Seed: 3, MaxPairs: 20_000})
		if err != nil {
			t.Fatalf("sampled lag %d: %v", lag, err)
		}
		assertEmpiricalEqual(t, sm, refSampled)
	}
}
