// Package stat is the pluggable statistic-kernel engine behind the
// analysis pipeline. A statistic is implemented once, as a Kernel that
// either evaluates windows (WindowKernel — the engine owns tiling, lane
// widening, streaming, cancellation, and worker fan-out) or the whole
// field (GlobalKernel — the kernel owns its fast paths and source
// dispatch). Run evaluates a kernel set with one window sweep; Windows
// is its one-kernel case.
//
// The bit-identity contract every kernel must honor: EvalWindows sees
// a run of up to stream.BatchWidth freshly extracted windows (widened
// exactly on the float32 lane), and each window's value must depend on
// that window alone, never on its batch companions, the evaluation
// order, or shared mutable state. The window kernels of a Run share
// each batch, so EvalWindows must not write to it. Kept values reach
// Fold in global window order (or selection order, for sampled sweeps)
// at any worker count, tile budget, and halo. GlobalKernel
// implementations carry the same obligation for each source they accept.
package stat

import (
	"context"
	"fmt"
	"slices"

	"lossycorr/internal/field"
	"lossycorr/internal/stream"
)

// Caps describes what a kernel can do — the capability surface
// corrcompd lists on GET /v1/stats.
type Caps struct {
	// Lanes are the element lanes the kernel accepts ("float64",
	// "float32").
	Lanes []string
	// Windowed marks per-window kernels whose sweep the engine owns.
	Windowed bool
	// Streaming marks kernels that accept a TileReader source under a
	// memory budget.
	Streaming bool
	// FFT marks kernels with a spectral fast path.
	FFT bool
}

// Kernel is one registered statistic. Implementations must also
// satisfy WindowKernel or GlobalKernel; the engine dispatches on which
// one.
type Kernel interface {
	// Name is the registry key and the selection token of the CLI's
	// -stats flag and corrcompd's stats option.
	Name() string
	// Outputs are the result keys the kernel produces, in the order its
	// evaluation returns them.
	Outputs() []string
	Caps() Caps
}

// FoldInfo carries the sweep geometry into Fold, for error reporting.
type FoldInfo struct {
	Window int
	Shape  []int
}

// WindowKernel is a statistic evaluated per h-window. The engine
// extracts each window (widened exactly on the float32 lane), fans the
// sweep out, and hands the kept values — in window order — to Fold.
type WindowKernel interface {
	Kernel
	// CheckWindow validates the window edge before any sweep; its error
	// is returned verbatim.
	CheckWindow(h int) error
	// EvalWindows evaluates a batch of extracted windows, writing
	// window i's value to vals[i] and whether to keep it to keep[i];
	// skipped windows set keep[i] false without error. opt is the
	// kernel's per-run options (nil means defaults). On failure it
	// returns the error of the lowest failing index in ws, so the
	// engine can report the lowest failing window of a whole sweep. ws
	// is shared with the run's other window kernels: do not write to it.
	EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error
	// Fold reduces the kept values (in window order) into the kernel's
	// outputs, parallel to Outputs().
	Fold(vals []float64, info FoldInfo, opt any) ([]float64, error)
}

// GlobalKernel is a statistic computed over the whole field with
// kernel-owned source dispatch (e.g. the global variogram's exact /
// sampled / spectral scans and their out-of-core shards).
type GlobalKernel interface {
	Kernel
	// EvalGlobal computes the kernel's outputs for src, parallel to
	// Outputs(). opt is the kernel's per-run options (nil means
	// defaults); req supplies engine-level knobs such as Workers.
	EvalGlobal(ctx context.Context, src Source, req Request, opt any) ([]float64, error)
}

// errLabeler lets a kernel override the label its failures are wrapped
// with (the historical "global variogram" / "local variogram" /
// "local svd" error prefixes). Kernels without one are labeled by
// Name.
type errLabeler interface{ ErrLabel() string }

// ErrLabel returns the label a kernel's failures are wrapped with.
func ErrLabel(k Kernel) string {
	if l, ok := k.(errLabeler); ok {
		return l.ErrLabel()
	}
	return k.Name()
}

// Source names every input the engine accepts (see stream.Source).
type Source = stream.Source

// SourceOf is the in-RAM source of f, on f's lane.
func SourceOf[T field.Elem](f *field.Of[T]) Source {
	if f, ok := any(f).(*field.Field32); ok {
		return Source{F32: f}
	}
	return Source{F64: any(f).(*field.Field)}
}

// Request carries the engine-level parameters of one Run.
type Request struct {
	// Window is the local-statistics window edge H.
	Window int
	// Workers sizes each worker pool of the run; results are
	// bit-identical for every value.
	Workers int
	// Opt maps kernel name to that kernel's options value; kernels
	// without an entry run on their defaults.
	Opt map[string]any
}

// Windows sweeps the h-windows of src through k alone — the
// one-kernel case of the sweep Run shares among its window kernels (see
// stream.Windows for the order of kept values and the error contract).
// sel selects a subset of global window indices (nil means all).
func Windows(ctx context.Context, src Source, k WindowKernel, h, workers int, sel []int, opt any) ([]float64, error) {
	if err := k.CheckWindow(h); err != nil {
		return nil, err
	}
	vals, errs := stream.Windows(ctx, src, h, workers, sel, func(ws []*field.Field, vals []float64, keep []bool) error {
		return k.EvalWindows(ws, vals, keep, opt)
	})
	return vals[0], errs[0]
}

// Run evaluates kernels over src into a keyed result set. Each global
// kernel is one task, and all window kernels share one sweep. The tasks
// run one after another, each fanning out over the worker pool by
// itself: a Reader's memory budget bounds PEAK transform bytes, which
// concurrent tasks would sum, and in RAM a task started beside another
// finds the pool's extra workers taken and runs alone. Failures are
// wrapped with the failing kernel's error label and reported in kernel
// order, with ctx cancellation dominating.
func Run(ctx context.Context, src Source, kernels []Kernel, req Request) (map[string]float64, error) {
	outs := make([][]float64, len(kernels))
	errs := make([]error, len(kernels))
	// tasks[i] evaluates kernel i, except that the first window kernel's
	// task is the sweep of them all and the others do nothing.
	tasks := make([]func(), len(kernels))
	nop := func() {}
	var wins []int // the sweep's kernels, by index
	var evals []stream.BatchEval
	sweep := func() {
		vals, werrs := stream.Windows(ctx, src, req.Window, req.Workers, nil, evals...)
		for j, i := range wins {
			if errs[i] = werrs[j]; errs[i] == nil {
				k := kernels[i].(WindowKernel)
				outs[i], errs[i] = k.Fold(vals[j], FoldInfo{Window: req.Window, Shape: src.Shape()}, req.Opt[k.Name()])
			}
		}
	}
	for i, k := range kernels {
		tasks[i] = nop
		opt := req.Opt[k.Name()]
		switch k := k.(type) {
		case GlobalKernel:
			tasks[i] = func() { outs[i], errs[i] = k.EvalGlobal(ctx, src, req, opt) }
		case WindowKernel:
			if errs[i] = k.CheckWindow(req.Window); errs[i] != nil {
				continue
			}
			if wins == nil {
				tasks[i] = sweep
			}
			wins = append(wins, i)
			evals = append(evals, func(ws []*field.Field, vals []float64, keep []bool) error {
				return k.EvalWindows(ws, vals, keep, opt)
			})
		default:
			errs[i] = fmt.Errorf("stat: kernel %q implements neither WindowKernel nor GlobalKernel", k.Name())
		}
	}
	for i := range tasks {
		// Once a kernel has failed, no later task can change the
		// reported error.
		if slices.ContainsFunc(errs[:i], func(err error) bool { return err != nil }) {
			break
		}
		tasks[i]()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ErrLabel(kernels[i]), err)
		}
	}
	res := make(map[string]float64, 2*len(kernels))
	for i, k := range kernels {
		names := k.Outputs()
		if len(outs[i]) != len(names) {
			return nil, fmt.Errorf("%s: kernel returned %d values for %d outputs", ErrLabel(k), len(outs[i]), len(names))
		}
		for j, n := range names {
			res[n] = outs[i][j]
		}
	}
	return res, nil
}
