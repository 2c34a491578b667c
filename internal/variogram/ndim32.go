package variogram

// Float32-lane entry points. The direct estimators reuse the
// element-generic scan cores (accumulation is float64 either way, and
// the sampler's draw order is lane-independent); the FFT engine is the
// generic fftScan on float32 planes and complex64 spectra. The
// windowed statistic delegates to the stat engine, whose float32 lane widens
// each small window into oracle precision on the fly (WindowIntoWide)
// — the per-window fits are exactly the float64 code path over
// exactly-widened samples, and no full-size float64 copy of the field
// is ever made.

import (
	"context"
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
)

func (o *Options) withField32Defaults(f *field.Field32) Options {
	out := *o
	if out.MaxLag <= 0 {
		out.MaxLag = f.MinDim() / 2
		if out.MaxLag < 1 {
			out.MaxLag = 1
		}
	}
	if out.MaxPairs <= 0 {
		out.MaxPairs = 400_000
	}
	return out
}

// ComputeField32 estimates the empirical semi-variogram of a float32
// field: the float32 mirror of ComputeField, with the same
// estimator-selection rules and the same bit-identical-at-any-worker-
// count contract.
func ComputeField32(f *field.Field32, opts Options) (*Empirical, error) {
	return ComputeField32Ctx(context.Background(), f, opts)
}

// ComputeField32Ctx is ComputeField32 with cooperative cancellation.
func ComputeField32Ctx(ctx context.Context, f *field.Field32, opts Options) (*Empirical, error) {
	if f.NDim() < 1 || f.Len() < 2 {
		return nil, fmt.Errorf("variogram: field too small (shape %v)", f.Shape)
	}
	o := opts.withField32Defaults(f)
	if o.FFT {
		return fftScan(ctx, f.Data, f.Shape, f.Summary().Mean, o, lane32)
	}
	if o.Exact || f.Len() <= exactThresholdFor(f.NDim()) {
		return exactScanData(ctx, f.Data, f.Shape, o)
	}
	return sampledScanData(ctx, f.Data, f.Shape, o)
}

// GlobalRangeField32 estimates the variogram range of an entire
// float32 field.
func GlobalRangeField32(f *field.Field32, opts Options) (Model, error) {
	return GlobalRangeField32Ctx(context.Background(), f, opts)
}

// GlobalRangeField32Ctx is GlobalRangeField32 with cooperative
// cancellation of the underlying scan.
func GlobalRangeField32Ctx(ctx context.Context, f *field.Field32, opts Options) (Model, error) {
	e, err := ComputeField32Ctx(ctx, f, opts)
	if err != nil {
		return Model{}, err
	}
	return Fit(e)
}

// LocalRangesField32 tiles a float32 field with h-edged windows and
// estimates a variogram range per window — the stat engine's float32
// lane over LocalRangeKernel, bit-identical to the float64 sweep over
// the exactly-widened field.
func LocalRangesField32(f *field.Field32, h int, opts Options) ([]float64, error) {
	return LocalRangesField32Ctx(context.Background(), f, h, opts)
}

// LocalRangesField32Ctx is LocalRangesField32 with cooperative
// cancellation: the tile fan-out checks ctx before each window.
func LocalRangesField32Ctx(ctx context.Context, f *field.Field32, h int, opts Options) ([]float64, error) {
	return stat.Windows(ctx, stat.Source{F32: f}, LocalRangeKernel{}, h, opts.Workers, nil, opts)
}

// LocalRangeStdField32 is the std of per-window variogram ranges for a
// float32 field — the paper's heterogeneity statistic on the compute
// lane.
func LocalRangeStdField32(f *field.Field32, h int, opts Options) (float64, error) {
	return LocalRangeStdField32Ctx(context.Background(), f, h, opts)
}

// LocalRangeStdField32Ctx is LocalRangeStdField32 with cooperative
// cancellation of the window sweep.
func LocalRangeStdField32Ctx(ctx context.Context, f *field.Field32, h int, opts Options) (float64, error) {
	ranges, err := LocalRangesField32Ctx(ctx, f, h, opts)
	if err != nil {
		return 0, err
	}
	return foldStd(LocalRangeKernel{}, ranges, h, f.Shape, opts)
}
