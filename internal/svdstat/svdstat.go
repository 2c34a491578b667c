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
// stat engine's; this package owns only the level arithmetic of a
// batch of windows (LevelKernel): each kept window's centered Gram
// matrix, assembled in pooled per-worker scratch, and one batch
// eigensolve (linalg.SymEigenBatch) whose QL sweeps interleave the
// windows, each window's level the bits it gets alone.
package svdstat

import (
	"context"
	"fmt"
	"sync"

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
	// nothing and every window's level comes from windowLevels. It stays
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

// levelScratch is one worker's storage for a batch of window levels:
// the batch's Gram matrices back to back, their line sums, and one
// eigenproblem per kept window. Steady state allocates none of it.
type levelScratch struct {
	gram, lineSum, d, e, xt []float64
	probs                   []linalg.Eigenproblem
}

var levelScratchPool = sync.Pool{New: func() any { return new(levelScratch) }}

// grown returns s resliced to n words, reallocated only when too short.
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// windowLevels writes the truncation level of every window of ws to
// vals: the smallest k such that the top-k singular values of the
// mean-centered window capture at least frac of its total squared
// singular-value mass. A window of any rank enters through its mode-1
// unfolding (first extent × the rest); for rank 2 that is the window
// itself. Windows with any extent below 2 get keep[i] false. Centering
// implements the paper's "variance" reading: without it the DC
// component swallows the energy budget of smooth windows and the
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
// The kept windows' Gram matrices are solved as one batch
// (linalg.SymEigenBatch), each to the bits it gets alone. On failure
// the error is that of the lowest failing window.
func windowLevels(ws []*field.Field, vals []float64, keep []bool, frac float64) error {
	kept := 0
	for i, w := range ws {
		vals[i], keep[i] = 0, w.MinDim() >= 2
		if keep[i] {
			kept++
		}
	}
	if kept == 0 {
		return nil
	}
	if !(frac > 0 && frac <= 1) {
		return fmt.Errorf("svdstat: variance fraction %v outside (0,1]", frac)
	}
	sc := levelScratchPool.Get().(*levelScratch)
	defer levelScratchPool.Put(sc)
	ps, err := sc.solve(ws, keep)
	if err != nil {
		return err
	}
	for i := range ws {
		if keep[i] {
			vals[i] = float64(energyLevel(ps[0].D, frac))
			ps = ps[1:]
		}
	}
	return nil
}

// solve assembles the centered Gram matrix of every window of ws with
// keep set into sc and solves them as one batch, returning one
// eigenproblem per kept window, in window order, with its eigenvalues
// in descending order.
func (sc *levelScratch) solve(ws []*field.Field, keep []bool) ([]linalg.Eigenproblem, error) {
	var kept, words, lines int
	for i, w := range ws {
		if keep[i] {
			k := min(w.Shape[0], w.Len()/w.Shape[0])
			kept, words, lines = kept+1, words+k*k, lines+k
		}
	}
	sc.gram, sc.lineSum = grown(sc.gram, words), grown(sc.lineSum, lines)
	sc.d, sc.e = grown(sc.d, lines), grown(sc.e, lines)
	if cap(sc.probs) < kept {
		sc.probs = make([]linalg.Eigenproblem, kept)
	}
	ps := sc.probs[:kept]
	words, lines, kept = 0, 0, 0
	for i, w := range ws {
		if !keep[i] {
			continue
		}
		rows := w.Shape[0]
		cols := w.Len() / rows
		k := min(rows, cols)
		g := sc.gram[words : words+k*k]
		sc.xt = grown(sc.xt, w.Len())
		centeredGram(g, sc.lineSum[lines:lines+k], sc.xt, w.Data, rows, cols)
		ps[kept] = linalg.Eigenproblem{A: g, D: sc.d[lines : lines+k], E: sc.e[lines : lines+k]}
		words, lines, kept = words+k*k, lines+k, kept+1
	}
	return ps, linalg.SymEigenBatch(ps)
}

// centeredGram writes the centered Gram matrix of the rows×cols window
// data into the k×k matrix g, k = min(rows, cols), with lineSum (k
// words) and, when rows ≥ cols, xt (rows·cols words) as scratch. The
// contracted side becomes the rows of a k×m matrix x (the window
// itself when rows < cols, else its transpose in xt), so that every
// Gram entry is a dot product of two rows of x, summed in the order of
// the contracted index from 0, as is each line sum; the window's sum
// runs over data in memory order.
func centeredGram(g, lineSum, xt, data []float64, rows, cols int) {
	var sumAll float64
	x, k, m := data, rows, cols // contract over cols: G = AAᵀ
	if rows >= cols {
		x, k, m = xt[:len(data)], cols, rows // contract over rows: G = AᵀA
		clear(lineSum)
		for t := 0; t < rows; t++ {
			for i, v := range data[t*cols : (t+1)*cols] {
				sumAll += v
				lineSum[i] += v
				x[i*rows+t] = v
			}
		}
	} else {
		for i := range lineSum {
			var s float64
			for _, v := range data[i*cols : (i+1)*cols] {
				sumAll += v
				s += v
			}
			lineSum[i] = s
		}
	}
	mu := sumAll / float64(len(data))
	gramRows(g, x, k, m)
	mm := float64(m) * mu * mu
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			v := g[i*k+j] - mu*(lineSum[j]+lineSum[i]) + mm
			g[i*k+j], g[j*k+i] = v, v
		}
	}
}

// gramRows writes g[i][j] = Σ_t x[i][t]·x[j][t] (t from 0 to m−1, in
// order) for every j ≤ i of the k×m matrix x into the k×k matrix g,
// two rows by four columns at a time so that each loaded x word serves
// several sums; a block that straddles the diagonal also writes entries
// above it, with the values they have by symmetry.
func gramRows(g, x []float64, k, m int) {
	row := func(i int) []float64 { return x[i*m : (i+1)*m] }
	i := 0
	for ; i+1 < k; i += 2 {
		a0, a1 := row(i), row(i+1)
		j := 0
		for ; j+3 < k && j <= i+1; j += 4 {
			n := len(a0)
			a1, b0, b1, b2, b3 := a1[:n], row(j)[:n], row(j + 1)[:n], row(j + 2)[:n], row(j + 3)[:n]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for t, u := range a0 {
				v := a1[t]
				w0, w1, w2, w3 := b0[t], b1[t], b2[t], b3[t]
				s00 += u * w0
				s01 += u * w1
				s02 += u * w2
				s03 += u * w3
				s10 += v * w0
				s11 += v * w1
				s12 += v * w2
				s13 += v * w3
			}
			g0, g1 := g[i*k+j:i*k+j+4], g[(i+1)*k+j:(i+1)*k+j+4]
			g0[0], g0[1], g0[2], g0[3] = s00, s01, s02, s03
			g1[0], g1[1], g1[2], g1[3] = s10, s11, s12, s13
		}
		for ; j <= i+1; j++ {
			b := row(j)[:len(a0)]
			a1 := a1[:len(a0)]
			var s0, s1 float64
			for t, u := range a0 {
				w := b[t]
				s0 += u * w
				s1 += a1[t] * w
			}
			g[i*k+j], g[(i+1)*k+j] = s0, s1
		}
	}
	for ; i < k; i++ {
		a := row(i)
		for j := 0; j <= i; j++ {
			b := row(j)[:len(a)]
			var s float64
			for t, u := range a {
				s += u * b[t]
			}
			g[i*k+j] = s
		}
	}
}

// energyLevel is the truncation level of the descending spectrum eig:
// the smallest k whose leading k positive eigenvalues reach frac of
// the positive total, 0 when that total is 0.
func energyLevel(eig []float64, frac float64) int {
	var total float64
	for _, e := range eig {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for i, e := range eig {
		if e > 0 {
			acc += e
		}
		if acc >= frac*total {
			return i + 1
		}
	}
	return len(eig)
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
