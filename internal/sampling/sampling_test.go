package sampling

import (
	"context"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

var bg = context.Background()

// heterogeneousField is a 128² source: smooth Gaussian on the left
// half, white noise on the right.
func heterogeneousField(t *testing.T) stat.Source {
	t.Helper()
	smooth, err := gaussian.Generate(gaussian.Params{Rows: 128, Cols: 128, Range: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	mixed := field.FromGrid(smooth)
	for r := 0; r < 128; r++ {
		for c := 64; c < 128; c++ {
			mixed.Set(rng.NormFloat64(), r, c)
		}
	}
	return stat.Source{F64: mixed}
}

func TestFullFractionMatchesReference(t *testing.T) {
	f := heterogeneousField(t)
	full, err := variogram.LocalRangeStd(bg, f, 32, variogram.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := LocalRangeStd(bg, f, 32, Options{Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-sampled) > 1e-9 {
		t.Fatalf("fraction-1 sampled %v != full %v", sampled, full)
	}

	fullSVD, err := svdstat.LocalStd(bg, f, 32, svdstat.Options{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	sampledSVD, err := LocalSVDStd(bg, f, 32, 0.99, Options{Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fullSVD-sampledSVD) > 1e-9 {
		t.Fatalf("fraction-1 svd %v != full %v", sampledSVD, fullSVD)
	}
}

func TestHalfFractionApproximates(t *testing.T) {
	f := heterogeneousField(t)
	full, err := LocalRangeStd(bg, f, 32, Options{Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := LocalRangeStd(bg, f, 32, Options{Fraction: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if full == 0 {
		t.Fatal("degenerate reference")
	}
	if math.Abs(est-full)/full > 0.8 {
		t.Fatalf("half-fraction estimate %v too far from %v", est, full)
	}
}

func TestValidation(t *testing.T) {
	f := heterogeneousField(t)
	if _, err := LocalRangeStd(bg, f, 2, Options{}); err == nil {
		t.Fatal("tiny window must error")
	}
	if _, err := LocalSVDStd(bg, f, 1, 0.99, Options{}); err == nil {
		t.Fatal("tiny window must error")
	}
	if _, err := LocalRangeStd(bg, stat.Source{F64: field.New(64, 64)}, 32, Options{}); err == nil {
		t.Fatal("constant field must error (no usable windows)")
	}
	if _, err := LocalRangeStd(bg, stat.Source{F64: field.New(16, 16, 16)}, 8, Options{}); err == nil {
		t.Fatal("rank-3 source must error: the sampled estimators are 2D")
	}
}

// TestSVDFractionValidation: a variance fraction of 0 means the
// default, and any other value outside (0,1] — NaN included — is
// svdstat's error, not a silent substitution of the default.
func TestSVDFractionValidation(t *testing.T) {
	f := heterogeneousField(t)
	opts := Options{Fraction: 0.25, Seed: 5}
	want, err := LocalSVDStd(bg, f, 32, svdstat.DefaultVarianceFraction, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := LocalSVDStd(bg, f, 32, 0, opts); err != nil || got != want {
		t.Fatalf("frac 0: %v (%v), want the default's %v", got, err, want)
	}
	for _, frac := range []float64{math.NaN(), math.Inf(1), -0.5, 1.5} {
		if got, err := LocalSVDStd(bg, f, 32, frac, opts); err == nil {
			t.Errorf("frac %v: %v, want an error", frac, got)
		}
	}
}

func TestSweepFractions(t *testing.T) {
	f := heterogeneousField(t)
	points, err := SweepFractions(bg, f, 32, "range", []float64{0.25, 0.5, 1}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %v", points)
	}
	last := points[len(points)-1]
	if last.Fraction != 1 || last.RelError > 1e-9 {
		t.Fatalf("fraction-1 point not exact: %+v", last)
	}
	for _, p := range points {
		if p.Reference != last.Reference {
			t.Fatalf("reference drifted: %+v", points)
		}
		if p.RelError < 0 {
			t.Fatalf("negative error: %+v", p)
		}
	}
	if _, err := SweepFractions(bg, f, 32, "nope", nil, Options{Seed: 1}); err == nil {
		t.Fatal("unknown stat must error")
	}
}

func TestSweepFractionsSVD(t *testing.T) {
	f := heterogeneousField(t)
	points, err := SweepFractions(bg, f, 32, "svd", nil, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 { // default fractions
		t.Fatalf("got %d points", len(points))
	}
	if points[len(points)-1].RelError > 1e-9 {
		t.Fatalf("full fraction inexact: %+v", points[len(points)-1])
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	f := heterogeneousField(t)
	a, err := LocalRangeStd(bg, f, 32, Options{Fraction: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LocalRangeStd(bg, f, 32, Options{Fraction: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed differs: %v vs %v", a, b)
	}
}
