package variogram

// Out-of-core variants of the variogram estimators. The windowed sweep
// routes through stream.Windows — h-aligned tiles against a byte
// budget, identical per-window solves, scatter-by-global-index folding
// — so LocalRangesReaderCtx is bit-identical to LocalRangesFieldCtx at
// any worker count, tile budget, and halo. The global estimators keep
// their in-RAM dispatch: the spectral lane runs the sharded engine
// (fftstream.go; pair counts exact, Gamma tolerance-equivalent), the
// sampled lane aims the identical seeded draw sequence at the reader's
// point-access lane and is bit-identical, and the exact scan — which
// by construction touches every element pair — materializes the field
// through the transform pool, where the peak gauge honestly reports
// the cost.

import (
	"context"
	"fmt"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/stat"
)

// withReaderDefaults mirrors withFieldDefaults for an out-of-core
// field: the lag cutoff falls back to half the smallest extent.
func (o *Options) withReaderDefaults(tr *field.TileReader) Options {
	out := *o
	if out.MaxLag <= 0 {
		out.MaxLag = tr.MinDim() / 2
		if out.MaxLag < 1 {
			out.MaxLag = 1
		}
	}
	if out.MaxPairs <= 0 {
		out.MaxPairs = 400_000
	}
	return out
}

// ComputeReaderCtx estimates the empirical semi-variogram of an
// out-of-core field, dispatching exactly as ComputeFieldCtx does:
// opts.FFT selects the sharded spectral engine, small fields (or
// opts.Exact) the exhaustive scan, everything else the pair sampler.
// The sampled lane is bit-identical to the in-RAM scan; the spectral
// lane has exactly equal pair counts and tolerance-equivalent Gamma;
// the exact lane materializes the volume (its pairs span arbitrary
// lags), with the bytes on the transform-pool gauge.
func ComputeReaderCtx(ctx context.Context, tr *field.TileReader, opts Options, so field.StreamOptions) (*Empirical, error) {
	if tr.NDim() < 1 || tr.Len() < 2 {
		return nil, fmt.Errorf("variogram: field too small (shape %v)", tr.Shape())
	}
	o := opts.withReaderDefaults(tr)
	if o.FFT {
		return fftScanReader(ctx, tr, o, so)
	}
	if o.Exact || tr.Len() <= exactThresholdFor(tr.NDim()) {
		return exactScanReader(ctx, tr, o)
	}
	return sampledScanReader(ctx, tr, o)
}

// GlobalRangeReaderCtx fits a model to the out-of-core empirical
// variogram and returns it, mirroring GlobalRangeFieldCtx.
func GlobalRangeReaderCtx(ctx context.Context, tr *field.TileReader, opts Options, so field.StreamOptions) (Model, error) {
	e, err := ComputeReaderCtx(ctx, tr, opts, so)
	if err != nil {
		return Model{}, err
	}
	return Fit(e)
}

// exactScanReader runs the exhaustive scan over a materialized copy of
// the reader: exact pairs span every lag, so there is no streaming
// decomposition that preserves the accumulation chains. The copy lives
// in a pooled transform buffer, so the peak-bytes gauge reports it.
func exactScanReader(ctx context.Context, tr *field.TileReader, o Options) (*Empirical, error) {
	shape := tr.Shape()
	buf := fft.AcquireTight[float64](tr.Len())
	defer fft.Release(buf)
	blk := &field.Field{Data: buf}
	lo := make([]int, len(shape))
	if err := tr.ReadBlock(blk, lo, shape); err != nil {
		return nil, err
	}
	return exactScanData(ctx, blk.Data, shape, o)
}

// sampledScanReader aims the seeded pair sampler at the reader's
// point-access lane. Draw sequence, rejection tests, and accumulation
// arithmetic are shared with the in-RAM sampler (sampledScanAt), so
// the result is bit-identical for either stored lane; the accessor
// captures the first read error for the serial scan to surface.
func sampledScanReader(ctx context.Context, tr *field.TileReader, o Options) (*Empirical, error) {
	var readErr error
	at := func(i int) float64 {
		v, err := tr.At(i)
		if err != nil && readErr == nil {
			readErr = err
		}
		return v
	}
	e, err := sampledScanAt(ctx, at, tr.Shape(), o)
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	return e, nil
}

// LocalRangesReaderCtx is the out-of-core LocalRangesFieldCtx: the same
// per-window exact solves, streamed one budget-sized tile at a time and
// folded in global window order — bit-identical to the in-RAM sweep at
// any worker count, tile budget, and halo. The streaming decomposition
// is the stat engine's Reader lane over the same LocalRangeKernel.
func LocalRangesReaderCtx(ctx context.Context, tr *field.TileReader, h int, opts Options, so field.StreamOptions) ([]float64, error) {
	return stat.Windows(ctx, stat.Source{Reader: tr, Stream: so}, LocalRangeKernel{}, h, opts.Workers, nil, opts)
}

// LocalRangeStdReaderCtx is the out-of-core LocalRangeStdFieldCtx.
func LocalRangeStdReaderCtx(ctx context.Context, tr *field.TileReader, h int, opts Options, so field.StreamOptions) (float64, error) {
	ranges, err := LocalRangesReaderCtx(ctx, tr, h, opts, so)
	if err != nil {
		return 0, err
	}
	return foldStd(LocalRangeKernel{}, ranges, h, tr.Shape(), opts)
}
