// Package variogram estimates empirical semi-variograms of fields of
// any rank and fits the squared-exponential parametric model the paper
// uses to extract the correlation range — globally (whole field) and
// locally (tiled windows, whose range standard deviation is the
// heterogeneity statistic of Section V-B).
//
// The empirical semi-variogram of a field z over grid points x_i is
//
//	γ(h) = 1/(2N(h)) · Σ_{|x_i−x_j|≈h} (z(x_i) − z(x_j))²
//
// computed here with Euclidean inter-point distances binned to unit
// lags. Three estimators are provided: an exact offset scan (every pair
// within the cutoff; cost O(cutoff^d·n)) for small fields/windows, a
// pair-sampling Monte Carlo estimator for large fields — the same
// trade-off practical geostatistics packages (gstat) make internally —
// and an FFT engine that computes every lag exactly at once.
//
// Each statistic has one entry point taking (ctx, stat.Source, …,
// Options): Compute, GlobalRange, LocalRanges and LocalRangeStd. The
// source is an in-RAM field on either lane or an out-of-core
// TileReader; the estimator, not the source, decides the arithmetic.
package variogram

import (
	"context"
	"fmt"
	"math"
	"slices"

	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
)

// Empirical holds a binned empirical semi-variogram.
type Empirical struct {
	H     []float64 // bin centers (lag distance)
	Gamma []float64 // semi-variance per bin
	N     []int64   // pair count per bin
}

// Options controls estimation.
type Options struct {
	// MaxLag is the distance cutoff. 0 means half the smallest extent,
	// the usual geostatistical rule of thumb; a cutoff past the field's
	// diagonal is clamped to it.
	MaxLag int
	// MaxPairs caps the number of sampled pairs for the Monte Carlo
	// estimator. 0 means 400_000.
	MaxPairs int
	// Exact forces the exhaustive offset scan regardless of size.
	Exact bool
	// FFT selects the FFT exact engine for global scans: every lag
	// cross-product and valid-pair count at once from zero-padded
	// autocorrelations (O(P log P) on the padded size P instead of
	// O(N·L^d)), binned identically to the direct scan. Pair counts
	// match the direct scan exactly and Gamma to roundoff (the
	// equivalence test pins 1e-9 relative). Windowed estimators ignore
	// it — their windows are small enough that the direct scan wins.
	FFT bool
	// Seed feeds the pair sampler (ignored for exact scans).
	Seed uint64
	// Workers bounds the goroutines used by the windowed estimators
	// (LocalRanges, LocalRangeStd) and by the global exact scan, which
	// fans distance bins out over the pool. 0 means GOMAXPROCS; 1
	// forces the serial path. Results are bit-identical for every
	// value.
	Workers int
}

// withDefaults fills the zero options from the field's shape: the lag
// cutoff falls back to half the smallest extent, the pair budget to
// 400,000 draws. A cutoff past the field's diagonal is clamped to the
// smallest L with L² ≥ Σ(dim_k−1)²: no pair lies beyond it, and every
// estimator's cost grows with the cutoff (MaxLag+1 bins; O(MaxLag^d)
// offsets for the exact and spectral scans, which also pad each axis
// by it).
func (o Options) withDefaults(shape []int) Options {
	if o.MaxLag <= 0 {
		o.MaxLag = max(slices.Min(shape)/2, 1)
	}
	diag := 0
	for _, d := range shape {
		diag += (d - 1) * (d - 1)
	}
	l := int(math.Sqrt(float64(diag)))
	for l*l < diag {
		l++
	}
	o.MaxLag = min(o.MaxLag, max(l, 1))
	if o.MaxPairs <= 0 {
		o.MaxPairs = 400_000
	}
	return o
}

// estimator is the global scan Compute picks for a request.
type estimator int

const (
	sampled estimator = iota
	exact
	spectral
)

// Compute estimates the empirical semi-variogram of src. The estimator
// is picked once: opts.FFT selects the spectral engine, small fields
// (or opts.Exact) the exhaustive offset scan, everything else the
// seeded pair sampler. Each then runs on the source as given:
//
//   - in-RAM fields scan their own lane (the direct scans accumulate in
//     float64, so the float32 lane is bit-identical to the float64 lane
//     over the widened field; the spectral engine widens a float32
//     field into its float64 plane, with the same effect);
//   - a Reader source runs the sampled scan over the in-RAM sampler's
//     pairs (the shared plan cache, or the draw loop) in budget-sized
//     chunks whose endpoints are read span by span (bit-identical to
//     in-RAM), the in-RAM spectral kernel over budget-sized axis-0
//     slabs (pair counts exact, Gamma tolerance-equivalent), and the
//     exact scan over a copy materialized on the transform-pool gauge.
//     The sampled and spectral scans return an error for a budget too
//     small to hold one span or one slab.
//
// The exact scan fans distance bins out over opts.Workers; results are
// bit-identical at any worker count. Every estimator checks ctx between
// units of work (per offset, per transform stage, every few thousand
// draws) and returns ctx.Err() promptly once the context dies.
func Compute(ctx context.Context, src stat.Source, opts Options) (*Empirical, error) {
	if src.F64 == nil && src.F32 == nil && src.Reader == nil {
		return nil, fmt.Errorf("variogram: empty source")
	}
	shape := src.Shape()
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(shape) < 1 || n < 2 {
		return nil, fmt.Errorf("variogram: field too small (shape %v)", shape)
	}
	o := opts.withDefaults(shape)
	est := sampled
	switch {
	case o.FFT:
		est = spectral
	case o.Exact || n <= exactThresholdFor(len(shape)):
		est = exact
	}
	switch {
	case src.Reader != nil:
		return scanReader(ctx, src.Reader, src.Stream, est, o)
	case src.F32 != nil:
		f := src.F32
		return scanData(ctx, f.Data, shape, func() float64 { return f.Summary().Mean }, est, o)
	}
	f := src.F64
	return scanData(ctx, f.Data, shape, func() float64 { return f.Summary().Mean }, est, o)
}

// collect turns per-bin pair sums and counts into an empirical
// variogram: every bin from 1 up that holds a pair, γ = sum / 2·count.
func collect(sum []float64, cnt []int64) *Empirical {
	return collectInto(new(Empirical), sum, cnt)
}

// collectInto is collect into e, whose slices it empties and reuses.
func collectInto(e *Empirical, sum []float64, cnt []int64) *Empirical {
	e.H, e.Gamma, e.N = e.H[:0], e.Gamma[:0], e.N[:0]
	for bin := 1; bin < len(sum); bin++ {
		if cnt[bin] == 0 {
			continue
		}
		e.H = append(e.H, float64(bin))
		e.Gamma = append(e.Gamma, sum[bin]/(2*float64(cnt[bin])))
		e.N = append(e.N, cnt[bin])
	}
	return e
}

// Model is a fitted squared-exponential variogram
//
//	γ(h) = Sill · (1 − exp(−h²/Range²))
//
// Range is directly comparable to the generating correlation range of
// the synthetic Gaussian fields. RangePaper = Range² is the paper's
// γ(h)=c0(1−exp(−h²/a)) parametrization of the same fit.
type Model struct {
	Sill       float64
	Range      float64
	RangePaper float64
	RSS        float64 // weighted residual sum of squares of the fit
}

// Gamma evaluates the fitted model at lag h.
func (m Model) Gamma(h float64) float64 {
	if m.Range == 0 {
		return m.Sill
	}
	return m.Sill * (1 - math.Exp(-h*h/(m.Range*m.Range)))
}

// Fit estimates the squared-exponential model from an empirical
// variogram by pair-count-weighted least squares: for a candidate range
// the optimal sill has a closed form, and the range itself is located
// by golden-section search.
func Fit(e *Empirical) (Model, error) {
	if len(e.H) < 2 {
		return Model{}, fmt.Errorf("variogram: %d bins are too few to fit", len(e.H))
	}
	hMax := e.H[len(e.H)-1]
	// The model's shape term 1 − exp(−h²/r²) of every bin, computed once
	// per candidate range and read by both sums: on the stack for the
	// few bins of a window fit.
	var buf [64]float64
	fs := buf[:]
	if len(e.H) > len(buf) {
		fs = make([]float64, len(e.H))
	}
	fs = fs[:len(e.H)]
	obj := func(r float64) (float64, float64) { // returns (rss, sill)
		var num, den float64
		for i, h := range e.H {
			f := 1 - math.Exp(-h*h/(r*r))
			fs[i] = f
			w := float64(e.N[i])
			num += w * f * e.Gamma[i]
			den += w * f * f
		}
		if den == 0 {
			return math.Inf(1), 0
		}
		sill := num / den
		var rss float64
		for i, f := range fs {
			d := sill*f - e.Gamma[i]
			rss += float64(e.N[i]) * d * d
		}
		return rss, sill
	}
	lo, hi := 0.25, 8*hMax
	r := linalg.GoldenMinimize(func(x float64) float64 { rss, _ := obj(x); return rss }, lo, hi, 1e-4*hMax)
	rss, sill := obj(r)
	return Model{Sill: sill, Range: r, RangePaper: r * r, RSS: rss}, nil
}

// GlobalRange fits the model to the empirical variogram of the entire
// field: the "Estimated global variogram range" axis of Figures 3 and
// 4.
func GlobalRange(ctx context.Context, src stat.Source, opts Options) (Model, error) {
	e, err := Compute(ctx, src, opts)
	if err != nil {
		return Model{}, err
	}
	return Fit(e)
}

// LocalRanges tiles the field with h-edged hypercube windows and
// estimates a variogram range per window (exact scan; windows are
// small). Windows with any extent below 4 after clipping, or constant
// windows, are skipped. The sweep — extraction (widened exactly on the
// float32 lane), tile streaming for a Reader source, fan-out over
// opts.Workers, cancellation per batch of windows — is the stat
// engine's, with LocalRangeKernel supplying the per-window solve (equal
// windows of a batch scanned in lockstep); ranges come back in
// window order, bit-identical for every source, worker count and tile
// budget.
func LocalRanges(ctx context.Context, src stat.Source, h int, opts Options) ([]float64, error) {
	return stat.Windows(ctx, src, LocalRangeKernel{}, h, opts.Workers, nil, opts)
}

// LocalRangeStd is the "Std estimated of local variogram range (H=h)"
// statistic: the standard deviation of per-window ranges, extended to
// H×H×H windows for volumes.
func LocalRangeStd(ctx context.Context, src stat.Source, h int, opts Options) (float64, error) {
	ranges, err := LocalRanges(ctx, src, h, opts)
	if err != nil {
		return 0, err
	}
	out, err := LocalRangeKernel{}.Fold(ranges, stat.FoldInfo{Window: h, Shape: src.Shape()}, opts)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
