// Package sampling implements the paper's future-work direction for
// making its correlation statistics cheap enough for online use: "We
// plan to leverage a sampling approach similar to prior work. We are
// hopeful that increasing levels of sampling by block can provide an
// increasingly accurate proxy for our metric." (Section VI.)
//
// Each estimator evaluates the windowed statistic on a random fraction
// of the H×H windows instead of all of them, by handing the stat
// engine a seeded selection of global window indices — the engine owns
// extraction, fan-out, and fold order, and the per-window solves are
// the registered kernels', so the sampled estimators stay bit-aligned
// with the full sweeps by construction. SweepFractions quantifies the
// accuracy-versus-cost trade-off so users can pick an operating point.
//
// Each estimator has one entry point taking (ctx, stat.Source, h, …,
// Options): LocalRangeStd, LocalSVDStd and SweepFractions. The window
// selection depends only on the window count and seed, so an in-RAM
// field on either lane and an out-of-core TileReader select — and
// evaluate — the same windows in the same order.
package sampling

import (
	"context"
	"fmt"
	"math"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

// Options configures sampled estimation.
type Options struct {
	// Fraction of windows evaluated: ≤ 0 means 0.25, above 1 means 1,
	// and NaN is an error.
	Fraction float64
	Seed     uint64
	// Workers bounds the goroutines evaluating sampled windows. 0 means
	// GOMAXPROCS; 1 forces serial evaluation. Results are bit-identical
	// for every value (the sampled window set depends only on Seed).
	Workers int
}

// fraction resolves Fraction to the share of windows evaluated.
func (o Options) fraction() (float64, error) {
	switch f := o.Fraction; {
	case math.IsNaN(f):
		return 0, fmt.Errorf("sampling: window fraction is NaN")
	case f <= 0:
		return 0.25, nil
	case f > 1:
		return 1, nil
	default:
		return f, nil
	}
}

// sampleIndices picks ceil(frac·total) global window indices: the
// window lattice's lexicographic order shuffled by the seed. The swap
// sequence depends only on the window count and seed, so in-RAM and
// out-of-core estimators select the same windows in the same order.
func sampleIndices(total int, frac float64, seed uint64) []int {
	all := make([]int, total)
	for i := range all {
		all[i] = i
	}
	rng := xrand.New(seed ^ 0x5a3b1e5a3b1e)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	take := int(math.Ceil(frac * float64(total)))
	return all[:take]
}

// sampledStd sweeps the selected windows of src through k and folds
// the kept values with sampling's own empty-set error. The window edge
// is checked before any selection is drawn.
func sampledStd(ctx context.Context, src stat.Source, k stat.WindowKernel, h int, opts Options, kOpt any) (float64, error) {
	if err := k.CheckWindow(h); err != nil {
		return 0, err
	}
	shape := src.Shape()
	if len(shape) != 2 {
		return 0, fmt.Errorf("sampling: rank-%d field; sampled estimators are 2D", len(shape))
	}
	frac, err := opts.fraction()
	if err != nil {
		return 0, err
	}
	sel := sampleIndices(field.NewWindowGrid(shape, h).Total(), frac, opts.Seed)
	vals, err := stat.Windows(ctx, src, k, h, opts.Workers, sel, kOpt)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("sampling: no usable windows at fraction %v", frac)
	}
	return linalg.Std(vals), nil
}

// LocalRangeStd estimates the std of local variogram ranges of a 2D
// source from a sampled subset of windows. Sampled windows are
// evaluated on the shared worker pool in sampling order (which depends
// only on the seed), so results match the serial path bit for bit —
// and, for a Reader source, the in-RAM estimator: the engine reads only
// the tiles holding sampled windows.
func LocalRangeStd(ctx context.Context, src stat.Source, h int, opts Options) (float64, error) {
	// The zero Options give the kernel's per-window solve: exact scan,
	// serial (the sampled windows are the parallel axis), MaxLag from
	// the clipped window's own extents.
	return sampledStd(ctx, src, variogram.LocalRangeKernel{}, h, opts, variogram.Options{})
}

// LocalSVDStd estimates the std of local SVD truncation levels of a 2D
// source from a sampled subset of windows. frac 0 means
// svdstat.DefaultVarianceFraction; a frac outside (0,1] fails with
// svdstat's error.
func LocalSVDStd(ctx context.Context, src stat.Source, h int, frac float64, opts Options) (float64, error) {
	// GramOff pins the historical full-SVD arithmetic of the sampled
	// estimator.
	return sampledStd(ctx, src, svdstat.LevelKernel{}, h, opts,
		svdstat.Options{Frac: frac, Gram: svdstat.GramOff})
}

// SweepPoint is one accuracy measurement of the sampled estimator.
type SweepPoint struct {
	Fraction  float64
	Estimate  float64
	Reference float64 // full (fraction=1) value
	RelError  float64 // |Estimate−Reference| / max(|Reference|, ε)
}

// SweepFractions evaluates a sampled statistic at increasing sampling
// fractions against its full evaluation — the "increasing levels of
// sampling by block" experiment of the paper's future work. which is
// either "range" (local variogram range std) or "svd". Seed and Workers
// come from opts (Fraction is ignored; the sweep supplies its own), and
// each fraction's windows are evaluated on the worker pool, checking
// ctx per window.
func SweepFractions(ctx context.Context, src stat.Source, h int, which string, fractions []float64, opts Options) ([]SweepPoint, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.1, 0.25, 0.5, 0.75, 1}
	}
	eval := func(frac float64) (float64, error) {
		o := Options{Fraction: frac, Seed: opts.Seed, Workers: opts.Workers}
		switch which {
		case "range":
			return LocalRangeStd(ctx, src, h, o)
		case "svd":
			return LocalSVDStd(ctx, src, h, svdstat.DefaultVarianceFraction, o)
		default:
			return 0, fmt.Errorf("sampling: unknown statistic %q (want range|svd)", which)
		}
	}
	ref, err := eval(1)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(fractions))
	for _, f := range fractions {
		est, err := eval(f)
		if err != nil {
			return nil, err
		}
		den := math.Abs(ref)
		if den < 1e-12 {
			den = 1e-12
		}
		out = append(out, SweepPoint{
			Fraction:  f,
			Estimate:  est,
			Reference: ref,
			RelError:  math.Abs(est-ref) / den,
		})
	}
	return out, nil
}
