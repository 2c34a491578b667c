// Package svdstat computes the paper's local singular-value statistic:
// per H×H window, the number of singular modes required to recover a
// target fraction (99 %) of the window's variance, summarized by the
// standard deviation over all windows ("Std of truncation level of
// local SVD (H=32)", Figures 6 and 7).
//
// The statistic extends to any rank through the field layer: a 3D
// H×H×H window is mode-1 unfolded into an H×H² matrix (the window's
// flat data viewed as first-extent rows), whose singular spectrum
// plays the same role the 2D window's spectrum does.
//
// Each statistic has one entry point taking (ctx, stat.Source, h,
// Options): LocalLevels and LocalStd. The sweep over the source — an
// in-RAM field on either lane or an out-of-core TileReader — is the
// stat engine's; this package owns only the per-window level
// arithmetic (LevelKernel).
package svdstat

import (
	"context"
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
)

// DefaultVarianceFraction is the paper's 99 % threshold.
const DefaultVarianceFraction = 0.99

// Options configures windowed SVD statistics.
type Options struct {
	// Frac is the variance fraction a window's leading modes must
	// capture. 0 means DefaultVarianceFraction.
	Frac float64
	// Workers bounds the goroutines of the per-window fan-out. 0 means
	// GOMAXPROCS; 1 forces serial evaluation. Results are bit-identical
	// for every value.
	Workers int
	// Gram is vestigial: struct{} has one value, so it selects
	// nothing and every window's level comes from levelGram. It stays
	// only because bench/workloads.go still copies
	// core.AnalysisOptions.SVDGram into it; both go with that line.
	Gram struct{}
}

func (o Options) withDefaults() Options {
	if o.Frac == 0 {
		o.Frac = DefaultVarianceFraction
	}
	return o
}

// levelGram is the truncation level of one window: the smallest k
// such that the top-k singular values of the mean-centered window
// capture at least frac of its total squared singular-value mass.
// Centering implements the paper's "variance" reading: without it the
// DC component swallows the energy budget of smooth windows and the
// statistic degenerates to 1 everywhere. A constant window reports 0.
//
// Only squared singular values enter, and those are the eigenvalues of
// the centered Gram matrix G = AᵀA (or AAᵀ when rows < cols). G is
// assembled in one pass from the raw window using the rank-one
// centering identity
//
//	G_centered[i][j] = G_raw[i][j] − μ·(S_i + S_j) + m·μ²
//
// (S = line sums along the contracted side, m its length), so no
// centered copy is made and no singular value is taken and squared.
func levelGram(data []float64, rows, cols int, frac float64) (int, error) {
	if !(frac > 0 && frac <= 1) {
		return 0, fmt.Errorf("svdstat: variance fraction %v outside (0,1]", frac)
	}
	n := rows * cols
	if n == 0 {
		return 0, nil
	}
	var sumAll float64
	for _, v := range data {
		sumAll += v
	}
	mu := sumAll / float64(n)
	k, m := cols, rows // contract over rows: G = AᵀA
	gramT := rows < cols
	if gramT {
		k, m = rows, cols // contract over cols: G = AAᵀ
	}
	g := linalg.NewMatrix(k, k)
	lineSum := make([]float64, k)
	if gramT {
		for i := 0; i < k; i++ {
			ri := data[i*cols : (i+1)*cols]
			var s float64
			for _, v := range ri {
				s += v
			}
			lineSum[i] = s
			for j := i; j < k; j++ {
				rj := data[j*cols : (j+1)*cols]
				var dot float64
				for t, v := range ri {
					dot += v * rj[t]
				}
				g.Set(i, j, dot)
			}
		}
	} else {
		for t := 0; t < rows; t++ {
			row := data[t*cols : (t+1)*cols]
			for i, vi := range row {
				lineSum[i] += vi
				gi := g.Data[i*k:]
				for j := i; j < k; j++ {
					gi[j] += vi * row[j]
				}
			}
		}
	}
	mm := float64(m) * mu * mu
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			v := g.At(i, j) - mu*(lineSum[i]+lineSum[j]) + mm
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	eig, err := linalg.SymEigen(g)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, e := range eig {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 0, nil
	}
	var acc float64
	for i, e := range eig {
		if e > 0 {
			acc += e
		}
		if acc >= frac*total {
			return i + 1, nil
		}
	}
	return len(eig), nil
}

// windowLevel computes the truncation level of one window of any rank
// through its mode-1 unfolding (first extent × the rest); for rank 2
// the unfolding is the window itself.
func windowLevel(w *field.Field, o Options) (int, error) {
	rows := w.Shape[0]
	cols := w.Len() / rows
	return levelGram(w.Data, rows, cols, o.Frac)
}

// LocalLevels tiles the field with h-edged hypercube windows and
// returns the truncation level of every window. The sweep — extraction
// (widened exactly on the float32 lane), tile streaming for a Reader
// source, fan-out over opts.Workers, cancellation per batch of
// windows — is the stat engine's over LevelKernel; levels come back in
// window order, bit-identical for every source, worker count and tile
// budget.
// Windows with any extent below 2 after clipping are skipped.
func LocalLevels(ctx context.Context, src stat.Source, h int, opts Options) ([]float64, error) {
	return stat.Windows(ctx, src, LevelKernel{}, h, opts.Workers, nil, opts)
}

// LocalStd is the paper's statistic: the standard deviation of local
// SVD truncation levels over h-edged windows.
func LocalStd(ctx context.Context, src stat.Source, h int, opts Options) (float64, error) {
	levels, err := LocalLevels(ctx, src, h, opts)
	if err != nil {
		return 0, err
	}
	out, err := LevelKernel{}.Fold(levels, stat.FoldInfo{Window: h, Shape: src.Shape()}, opts)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
