package variogram

// The variogram statistics as stat.Kernel implementations. RangeKernel
// is the global range/sill fit — a GlobalKernel, because the global
// scan owns genuinely different strategies per source (exact, sampled,
// spectral, and their out-of-core shards). LocalRangeKernel is the
// windowed heterogeneity statistic — a WindowKernel whose sweep
// (tiling, lanes, streaming, fan-out) the engine owns entirely.
//
// Options for either kernel arrive through the engine's Request.Opt
// under the kernel name as a variogram.Options value; a nil opt means
// defaults.

import (
	"context"
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
)

// lanes shared by every built-in kernel: the float64 oracle lane and
// the float32 compute lane.
func bothLanes() []string { return []string{"float64", "float32"} }

// RangeKernel is the global variogram statistic: the fitted range and
// sill of the whole field's empirical semi-variogram.
type RangeKernel struct{}

// Name implements stat.Kernel.
func (RangeKernel) Name() string { return "variogram" }

// Outputs implements stat.Kernel.
func (RangeKernel) Outputs() []string { return []string{"globalRange", "globalSill"} }

// Caps implements stat.Kernel.
func (RangeKernel) Caps() stat.Caps {
	return stat.Caps{Lanes: bothLanes(), Streaming: true, FFT: true}
}

// ErrLabel preserves the historical "global variogram" error prefix.
func (RangeKernel) ErrLabel() string { return "global variogram" }

// EvalGlobal implements stat.GlobalKernel: GlobalRange, whose Compute
// picks the estimator and dispatches on the source.
func (RangeKernel) EvalGlobal(ctx context.Context, src stat.Source, req stat.Request, opt any) ([]float64, error) {
	o, _ := opt.(Options)
	if o.Workers == 0 {
		o.Workers = req.Workers
	}
	m, err := GlobalRange(ctx, src, o)
	if err != nil {
		return nil, err
	}
	return []float64{m.Range, m.Sill}, nil
}

// LocalRangeKernel is the windowed variogram statistic: the std of
// per-window fitted ranges over h-edged hypercube windows.
type LocalRangeKernel struct{}

// Name implements stat.Kernel.
func (LocalRangeKernel) Name() string { return "localrange" }

// Outputs implements stat.Kernel.
func (LocalRangeKernel) Outputs() []string { return []string{"localRangeStd"} }

// Caps implements stat.Kernel.
func (LocalRangeKernel) Caps() stat.Caps {
	return stat.Caps{Lanes: bothLanes(), Windowed: true, Streaming: true}
}

// ErrLabel preserves the historical "local variogram" error prefix.
func (LocalRangeKernel) ErrLabel() string { return "local variogram" }

// CheckWindow implements stat.WindowKernel.
func (LocalRangeKernel) CheckWindow(h int) error {
	if h < 4 {
		return fmt.Errorf("variogram: window %d too small", h)
	}
	return nil
}

// EvalWindows implements stat.WindowKernel: each clipped window's
// exact scan and fit, skipping degenerate windows (any extent < 4, or
// constant). Equal-shaped windows share one lockstep scan.
func (LocalRangeKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error {
	o, _ := opt.(Options)
	return windowRanges(ws, vals, keep, o)
}

// Fold implements stat.WindowKernel: the std over kept window ranges.
func (LocalRangeKernel) Fold(vals []float64, info stat.FoldInfo, opt any) ([]float64, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("variogram: no usable windows (H=%d, shape %v)", info.Window, info.Shape)
	}
	return []float64{linalg.Std(vals)}, nil
}
