package variogram

// The global estimators over an out-of-core field (a Reader source).
// The windowed sweep needs nothing here: the stat engine streams
// h-aligned tiles itself, bit-identical to the in-RAM sweep. The
// spectral estimator runs the in-RAM kernel slab by slab (fftstream.go;
// pair counts exact, Gamma tolerance-equivalent), the sampled one aims the
// identical seeded draw sequence at the reader's point-access lane and
// is bit-identical, and the exact scan — which by construction touches
// every element pair — materializes the field through the transform
// pool, where the peak gauge honestly reports the cost.

import (
	"context"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
)

// scanReader runs the chosen estimator over an out-of-core field.
func scanReader(ctx context.Context, tr *field.TileReader, so field.StreamOptions, est estimator, o Options) (*Empirical, error) {
	switch est {
	case spectral:
		return fftScanReader(ctx, tr, o, so)
	case exact:
		return exactScanReader(ctx, tr, o)
	}
	return sampledScanReader(ctx, tr, o)
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
