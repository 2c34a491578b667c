// Package regression implements the paper's functional model between
// correlation statistics and compression ratio: the logarithmic
// least-squares fit CR = α + β·log(x) + ε, plus goodness-of-fit
// diagnostics (R², residual std, cross-validation).
package regression

import (
	"fmt"
	"math"

	"lossycorr/internal/linalg"
)

// LogFit is a fitted CR = Alpha + Beta·ln(x) model. Beyond the
// coefficients it carries the sufficient statistics of the fit's
// uncertainty — residual std, regressor mean, and centered sum of
// squares in log space — so prediction intervals can be evaluated (and
// serialized) without retaining the training points.
type LogFit struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	R2    float64 `json:"r2"`
	N     int     `json:"n"`
	// Sigma is the residual standard deviation of the fit (N−2 degrees
	// of freedom; 0 when N ≤ 2 or the fit is exact).
	Sigma float64 `json:"sigma"`
	// MeanLX and SxxLX are the mean and centered sum of squares of the
	// regressor ln(x) over the fitted points.
	MeanLX float64 `json:"meanLX"`
	SxxLX  float64 `json:"sxxLX"`
}

// Predict evaluates the fit at x (x must be positive).
func (f LogFit) Predict(x float64) float64 {
	return f.Alpha + f.Beta*math.Log(x)
}

// PredictInterval evaluates the fit at x together with a two-sided
// prediction interval at the given confidence level (e.g. 0.95): the
// classical t-based interval ŷ ± t_{N−2,(1+level)/2} · σ ·
// √(1 + 1/N + (ln x − mean)²/Sxx). With fewer than three fitted points,
// a zero residual std (exact fit), or a degenerate regressor spread the
// interval collapses to the point estimate — the honest answer when the
// dispersion is unidentifiable.
func (f LogFit) PredictInterval(x, level float64) (y, lo, hi float64) {
	y = f.Predict(x)
	dof := f.N - 2
	if dof < 1 || f.Sigma <= 0 || f.SxxLX <= 0 || level <= 0 || level >= 1 {
		return y, y, y
	}
	lx := math.Log(x)
	d := lx - f.MeanLX
	se := f.Sigma * math.Sqrt(1+1/float64(f.N)+d*d/f.SxxLX)
	h := StudentTQuantile((1+level)/2, dof) * se
	return y, y - h, y + h
}

// String renders the fit the way the paper's figure legends do.
func (f LogFit) String() string {
	return fmt.Sprintf("α=%.3f β=%.3f (R²=%.3f, n=%d)", f.Alpha, f.Beta, f.R2, f.N)
}

// filterLog applies the log-model point filter shared by FitLog and
// CrossValidateLog: points with non-positive or
// non-finite x, or non-finite y, are dropped (the paper drops such
// datapoints too). It returns ln(x) and y of the survivors plus the
// number of points skipped, so callers sizing folds or reporting
// coverage never confuse len(x) with the fitted count.
func filterLog(x, y []float64) (lx, ly []float64, skipped int) {
	for i := range x {
		if x[i] <= 0 || math.IsNaN(x[i]) || math.IsInf(x[i], 0) ||
			math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			skipped++
			continue
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, y[i])
	}
	return lx, ly, skipped
}

// FitLog fits y = α + β·ln(x) by ordinary least squares. Points with
// non-positive or non-finite x, or non-finite y, are skipped (the paper
// drops such datapoints too). At least two usable points are required.
func FitLog(x, y []float64) (LogFit, error) {
	if len(x) != len(y) {
		return LogFit{}, fmt.Errorf("regression: length mismatch %d vs %d", len(x), len(y))
	}
	lx, ly, _ := filterLog(x, y)
	return fitLogSpace(lx, ly)
}

// fitLogSpace fits y = α + β·v over already-log-transformed regressors.
func fitLogSpace(lx, ly []float64) (LogFit, error) {
	if len(lx) < 2 {
		return LogFit{}, fmt.Errorf("regression: only %d usable points", len(lx))
	}
	coeffs, err := linalg.PolyFit(lx, ly, 1)
	if err != nil {
		return LogFit{}, err
	}
	fit := LogFit{Alpha: coeffs[0], Beta: coeffs[1], N: len(lx)}
	fit.R2 = rSquared(lx, ly, func(v float64) float64 { return fit.Alpha + fit.Beta*v })
	mean := linalg.Mean(lx)
	var sxx, ssRes float64
	for i := range lx {
		d := lx[i] - mean
		sxx += d * d
		r := ly[i] - (fit.Alpha + fit.Beta*lx[i])
		ssRes += r * r
	}
	fit.MeanLX, fit.SxxLX = mean, sxx
	if dof := len(lx) - 2; dof > 0 {
		fit.Sigma = math.Sqrt(ssRes / float64(dof))
	}
	return fit, nil
}

func rSquared(x, y []float64, predict func(float64) float64) float64 {
	mean := linalg.Mean(y)
	var ssRes, ssTot float64
	for i := range x {
		d := y[i] - predict(x[i])
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
