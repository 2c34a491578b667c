package svdstat

import (
	"context"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

var bg = context.Background()

// in64 wraps an in-RAM float64 field as a statistic source.
func in64(f *field.Field) stat.Source { return stat.Source{F64: f} }

// fromFunc builds a rows×cols field from fn, in row-major order.
func fromFunc(rows, cols int, fn func(r, c int) float64) *field.Field {
	f := field.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			f.Data[r*cols+c] = fn(r, c)
		}
	}
	return f
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

// truncationLevel is the full-SVD (GramOff) truncation level of one 2D
// window: the smallest k whose top-k singular values of the centered
// window capture at least frac of its squared singular-value mass.
func truncationLevel(w *field.Field, frac float64) (int, error) {
	return windowLevel(w, Options{Frac: frac, Gram: GramOff})
}

func TestTruncationLevelRankOne(t *testing.T) {
	// outer product of zero-mean factors stays rank 1 after centering
	w := fromFunc(8, 8, func(r, c int) float64 {
		return (float64(r) - 3.5) * (float64(c) - 3.5)
	})
	k, err := truncationLevel(w, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("rank-1 window level %d want 1", k)
	}
}

func TestTruncationLevelIdentityLike(t *testing.T) {
	// centered identity I − J/n has n−1 equal singular values, so 99%
	// of the variance needs ceil(0.99·(n−1)) = 9 modes for n = 10
	n := 10
	w := fromFunc(n, n, func(r, c int) float64 {
		if r == c {
			return 1
		}
		return 0
	})
	k, err := truncationLevel(w, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if k != 9 {
		t.Fatalf("identity level %d want 9", k)
	}
}

func TestTruncationLevelConstantZero(t *testing.T) {
	k, err := truncationLevel(field.New(6, 6), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 {
		t.Fatalf("zero window level %d want 0", k)
	}
}

func TestTruncationLevelFracValidation(t *testing.T) {
	if _, err := truncationLevel(field.New(4, 4), 0); err == nil {
		t.Fatal("expected frac error")
	}
	if _, err := truncationLevel(field.New(4, 4), 1.2); err == nil {
		t.Fatal("expected frac error")
	}
}

// TestNaNFractionRejected pins the fraction check against NaN, which
// slips through a `frac <= 0 || frac > 1` test: both level paths, and
// the statistic over a field, must fail instead of reporting a level.
func TestNaNFractionRejected(t *testing.T) {
	w := fromFunc(8, 8, func(r, c int) float64 { return float64(r * c % 5) })
	for _, gram := range []GramMode{GramDefault, GramOff} {
		o := Options{Frac: math.NaN(), Gram: gram}
		if k, err := windowLevel(w, o); err == nil {
			t.Errorf("gram=%v: level %d for a NaN fraction, want error", gram, k)
		}
		if v, err := LocalStd(bg, in64(w), 4, o); err == nil {
			t.Errorf("gram=%v: LocalStd %v for a NaN fraction, want error", gram, v)
		}
	}
}

func TestTruncationLevelMonotoneInFraction(t *testing.T) {
	rng := xrand.New(6)
	w := fromFunc(12, 12, func(r, c int) float64 { return rng.NormFloat64() })
	k50, err := truncationLevel(w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	k99, err := truncationLevel(w, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if k50 > k99 {
		t.Fatalf("levels not monotone: k(0.5)=%d > k(0.99)=%d", k50, k99)
	}
	if k99 < 1 {
		t.Fatalf("noise window level %d", k99)
	}
}

func TestSmoothNeedsFewerModesThanNoise(t *testing.T) {
	smooth := gaussField(t, gaussian.Params{Rows: 32, Cols: 32, Range: 16, Seed: 2})
	rng := xrand.New(2)
	noise := fromFunc(32, 32, func(r, c int) float64 { return rng.NormFloat64() })
	ks, err := truncationLevel(smooth, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := truncationLevel(noise, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if ks >= kn {
		t.Fatalf("smooth level %d not below noise level %d", ks, kn)
	}
}

func TestLocalLevelsCount(t *testing.T) {
	f := gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 4})
	levels, err := LocalLevels(bg, in64(f), 32, Options{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 {
		t.Fatalf("got %d windows want 4", len(levels))
	}
	for _, k := range levels {
		if k < 1 || k > 32 {
			t.Fatalf("level %v out of range", k)
		}
	}
}

func TestLocalLevelsWindowValidation(t *testing.T) {
	if _, err := LocalLevels(bg, in64(field.New(8, 8)), 1, Options{Frac: 0.99}); err == nil {
		t.Fatal("expected window error")
	}
}

func TestLocalStdHomogeneousVsHeterogeneous(t *testing.T) {
	smooth := gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 16, Seed: 5})
	rng := xrand.New(5)
	mixed := smooth.Clone()
	for r := 0; r < 64; r++ {
		for c := 32; c < 64; c++ {
			mixed.Set(rng.NormFloat64(), r, c)
		}
	}
	sSmooth, err := LocalStd(bg, in64(smooth), 16, Options{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	sMixed, err := LocalStd(bg, in64(mixed), 16, Options{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if sMixed <= sSmooth {
		t.Fatalf("heterogeneous std %v not above homogeneous %v", sMixed, sSmooth)
	}
}

func TestDefaultVarianceFraction(t *testing.T) {
	if DefaultVarianceFraction != 0.99 {
		t.Fatalf("paper threshold changed: %v", DefaultVarianceFraction)
	}
}
