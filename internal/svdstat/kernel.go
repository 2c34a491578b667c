package svdstat

// The local SVD statistic as a stat.Kernel: a WindowKernel whose sweep
// (tiling, lane widening, streaming, fan-out) the engine owns, leaving
// this package with only the level arithmetic of a batch of windows
// (windowLevels) and the Std fold. Options arrive through the
// engine's Request.Opt under "svd" as an svdstat.Options value; a nil
// opt means defaults.

import (
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
)

// LevelKernel is the windowed SVD statistic: the std of per-window
// truncation levels at the configured variance fraction.
type LevelKernel struct{}

// Name implements stat.Kernel.
func (LevelKernel) Name() string { return "svd" }

// Outputs implements stat.Kernel.
func (LevelKernel) Outputs() []string { return []string{"localSVDStd"} }

// Caps implements stat.Kernel.
func (LevelKernel) Caps() stat.Caps {
	return stat.Caps{Lanes: []string{"float64", "float32"}, Windowed: true, Streaming: true}
}

// ErrLabel preserves the historical "local svd" error prefix.
func (LevelKernel) ErrLabel() string { return "local svd" }

// CheckWindow implements stat.WindowKernel.
func (LevelKernel) CheckWindow(h int) error {
	if h < 2 {
		return fmt.Errorf("svdstat: window %d too small", h)
	}
	return nil
}

// EvalWindows implements stat.WindowKernel: each window's truncation
// level through its mode-1 unfolding, skipping windows clipped below
// 2 in any extent; the batch's eigenproblems are solved together.
func (LevelKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error {
	o, _ := opt.(Options)
	return windowLevels(ws, vals, keep, o.withDefaults().Frac)
}

// Fold implements stat.WindowKernel: the std over kept window levels.
func (LevelKernel) Fold(vals []float64, info stat.FoldInfo, opt any) ([]float64, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("svdstat: no usable windows (H=%d, shape %v)", info.Window, info.Shape)
	}
	return []float64{linalg.Std(vals)}, nil
}
