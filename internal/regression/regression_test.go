package regression

import (
	"math"
	"strings"
	"testing"

	"lossycorr/internal/xrand"
)

func TestFitLogExactRecovery(t *testing.T) {
	alpha, beta := 3.5, 2.0
	var xs, ys []float64
	for x := 1.0; x <= 100; x *= 1.5 {
		xs = append(xs, x)
		ys = append(ys, alpha+beta*math.Log(x))
	}
	fit, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 1e-9 || math.Abs(fit.Beta-beta) > 1e-9 {
		t.Fatalf("fit %+v", fit)
	}
	if fit.R2 < 1-1e-12 {
		t.Fatalf("R² %v want 1", fit.R2)
	}
	if got := fit.Predict(math.E); math.Abs(got-(alpha+beta)) > 1e-9 {
		t.Fatalf("Predict(e)=%v", got)
	}
}

func TestFitLogNoisy(t *testing.T) {
	rng := xrand.New(10)
	alpha, beta := -1.0, 4.0
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := 1 + 99*rng.Float64()
		xs = append(xs, x)
		ys = append(ys, alpha+beta*math.Log(x)+0.1*rng.NormFloat64())
	}
	fit, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 0.1 || math.Abs(fit.Beta-beta) > 0.05 {
		t.Fatalf("noisy fit %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R² %v", fit.R2)
	}
}

func TestFitLogFiltersBadPoints(t *testing.T) {
	xs := []float64{-1, 0, math.NaN(), 1, math.E}
	ys := []float64{99, 99, 99, 2, 3}
	fit, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 2 {
		t.Fatalf("N=%d want 2", fit.N)
	}
	if math.Abs(fit.Alpha-2) > 1e-9 || math.Abs(fit.Beta-1) > 1e-9 {
		t.Fatalf("fit %+v", fit)
	}
}

func TestFitLogErrors(t *testing.T) {
	if _, err := FitLog([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := FitLog([]float64{-1, -2, 0}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestLogFitString(t *testing.T) {
	f := LogFit{Alpha: 1.5, Beta: -0.25, R2: 0.875, N: 10}
	s := f.String()
	for _, want := range []string{"α=1.500", "β=-0.250", "R²=0.875", "n=10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestRSquaredDegenerate(t *testing.T) {
	// constant y: perfect fit when prediction matches, else 0
	x, y := []float64{1, 2, 3}, []float64{4, 4, 4}
	if r2 := rSquared(x, y, func(float64) float64 { return 4 }); r2 != 1 {
		t.Fatalf("constant-y exact R²=%v want 1", r2)
	}
	if r2 := rSquared(x, y, func(v float64) float64 { return v }); r2 != 0 {
		t.Fatalf("constant-y inexact R²=%v want 0", r2)
	}
}

// TestFilterLogSkipCount pins the log-model filter's skip count, which
// CrossValidateLog reports: counts derived from len(x) (e.g. CV fold
// sizes) cannot silently drift from the fitted set.
func TestFilterLogSkipCount(t *testing.T) {
	x := []float64{1, -2, 0, math.NaN(), math.Inf(1), 2, 3}
	y := []float64{1, 1, 1, 1, 1, math.NaN(), 1}
	lx, ly, skipped := filterLog(x, y)
	if len(lx) != 2 || len(ly) != 2 || skipped != 5 {
		t.Fatalf("got %d points, %d skipped; want 2, 5", len(lx), skipped)
	}
	if lx[0] != 0 || lx[1] != math.Log(3) {
		t.Fatalf("ln(x) of the survivors %v, want [0 ln 3]", lx)
	}
}
