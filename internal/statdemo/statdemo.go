// Package statdemo is the extensibility proof for the statistic-kernel
// engine: a fourth kernel that plugs into the analysis pipeline purely
// by registering itself — no change to core, service, or the CLI. Any
// package that wants a new statistic does exactly this: implement
// stat.WindowKernel (or stat.GlobalKernel) and MustRegister it from
// init; the engine then supplies lanes, streaming, cancellation, and
// worker fan-out, and the selection surfaces (-stats, corrcompd's
// stats option, GET /v1/stats) pick it up automatically.
package statdemo

import (
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
)

func init() { stat.MustRegister(MeanStdKernel{}) }

// MeanStdKernel is the demo statistic: the std of per-window means —
// a cheap heterogeneity measure with the same sweep shape as the
// built-in windowed kernels.
type MeanStdKernel struct{}

// Name implements stat.Kernel.
func (MeanStdKernel) Name() string { return "meanstd" }

// Outputs implements stat.Kernel.
func (MeanStdKernel) Outputs() []string { return []string{"localMeanStd"} }

// Caps implements stat.Kernel.
func (MeanStdKernel) Caps() stat.Caps {
	return stat.Caps{Lanes: []string{"float64", "float32"}, Windowed: true, Streaming: true}
}

// CheckWindow implements stat.WindowKernel.
func (MeanStdKernel) CheckWindow(h int) error {
	if h < 1 {
		return fmt.Errorf("statdemo: window %d too small", h)
	}
	return nil
}

// EvalWindows implements stat.WindowKernel: the arithmetic mean of
// each extracted window. Empty (fully clipped) windows are skipped.
func (MeanStdKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error {
	for i, w := range ws {
		vals[i], keep[i] = 0, len(w.Data) > 0
		if !keep[i] {
			continue
		}
		sum := 0.0
		for _, v := range w.Data {
			sum += v
		}
		vals[i] = sum / float64(len(w.Data))
	}
	return nil
}

// Fold implements stat.WindowKernel: the std over kept window means.
func (MeanStdKernel) Fold(vals []float64, info stat.FoldInfo, opt any) ([]float64, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("statdemo: no usable windows (H=%d, shape %v)", info.Window, info.Shape)
	}
	return []float64{linalg.Std(vals)}, nil
}
