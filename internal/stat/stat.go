// Package stat is the pluggable statistic-kernel engine behind the
// analysis pipeline. A statistic is implemented once, as a Kernel: it
// declares its outputs and capabilities and either evaluates windows
// (WindowKernel — the engine owns tiling, lane widening, streaming,
// cancellation, and worker fan-out) or the whole field (GlobalKernel —
// the kernel owns its fast paths and source dispatch). One generic
// engine (Run, Windows) then replaces the historical per-statistic
// variant matrix of float64/float32 × in-RAM/streamed × plain/Ctx
// entry points.
//
// The bit-identity contract every kernel must honor: EvalWindows sees
// a run of freshly extracted windows (WindowInto for the float64 lane
// and streamed tiles, WindowIntoWide for the float32 lane — widening
// is exact), and each window's value must depend on that window alone,
// never on its batch companions, the evaluation order, or shared
// mutable state. The engine hands kernels runs of up to
// stream.BatchWidth consecutive windows and guarantees the kept values
// reach Fold in global window order (or selection order, for sampled
// sweeps) at any worker count, tile budget, and halo. GlobalKernel
// implementations carry the same obligation internally for each source
// they accept.
package stat

import (
	"context"
	"fmt"
	"sync"

	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
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
	// engine can report the lowest failing window of a whole sweep.
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

// Source is the one value that names every input the engine accepts:
// exactly one of F64, F32, or Reader is set. Stream configures the
// tile budget of a Reader source.
type Source struct {
	F64    *field.Field
	F32    *field.Field32
	Reader *field.TileReader
	Stream field.StreamOptions
}

// Streaming reports whether the source is dataset-backed.
func (s Source) Streaming() bool { return s.Reader != nil }

// Shape returns the source's extents.
func (s Source) Shape() []int {
	switch {
	case s.Reader != nil:
		return s.Reader.Shape()
	case s.F32 != nil:
		return s.F32.Shape
	case s.F64 != nil:
		return s.F64.Shape
	}
	return nil
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

// windowBatch is one batch's extraction buffers: each worker borrows
// a batch from batchPool, refills its windows in place, and returns it
// — steady state allocates no window storage.
type windowBatch struct {
	fields [stream.BatchWidth]field.Field
	ws     [stream.BatchWidth]*field.Field
}

var batchPool = sync.Pool{New: func() any {
	b := new(windowBatch)
	for i := range b.ws {
		b.ws[i] = &b.fields[i]
	}
	return b
}}

// Windows sweeps the h-windows of src through k, supplying everything
// the historical per-variant loops duplicated: lane handling (exact
// widening on the float32 lane), cancellation, worker fan-out, and —
// for Reader sources — tile streaming under the byte budget. Windows
// reach the kernel in runs of up to stream.BatchWidth consecutive
// windows (within one tile, for Reader sources). sel selects a subset
// of global window indices (nil means all); kept values come back in
// window order, or in sel order, which are exactly the fold orders of
// the historical full and sampled sweeps. A failing sweep returns the
// error of its lowest failing window (in sweep order), with ctx
// cancellation dominating.
func Windows(ctx context.Context, src Source, k WindowKernel, h, workers int, sel []int, opt any) ([]float64, error) {
	if err := k.CheckWindow(h); err != nil {
		return nil, err
	}
	if src.Reader != nil {
		return stream.Windows(ctx, src.Reader, h, workers, src.Stream, sel,
			func(block *field.Field, rels [][]int, hh int, vals []float64, keep []bool) error {
				b := batchPool.Get().(*windowBatch)
				defer batchPool.Put(b)
				ws := b.ws[:len(rels)]
				for i, rel := range rels {
					block.WindowInto(ws[i], rel, hh)
				}
				return k.EvalWindows(ws, vals, keep, opt)
			})
	}
	var extract func(dst *field.Field, origin []int)
	var origins [][]int
	if s32 := src.F32; s32 != nil {
		origins = s32.TileOrigins(h)
		extract = func(dst *field.Field, origin []int) { s32.WindowIntoWide(dst, origin, h) }
	} else if f := src.F64; f != nil {
		origins = f.TileOrigins(h)
		extract = func(dst *field.Field, origin []int) { f.WindowInto(dst, origin, h) }
	} else {
		return nil, fmt.Errorf("stat: empty source")
	}
	n := len(origins)
	if sel != nil {
		n = len(sel)
		for _, g := range sel {
			if g < 0 || g >= len(origins) {
				return nil, fmt.Errorf("stat: window index %d outside %d windows", g, len(origins))
			}
		}
	}
	vals := make([]float64, n)
	keep := make([]bool, n)
	const bw = stream.BatchWidth
	if err := parallel.ForErrCtx(ctx, (n+bw-1)/bw, workers, func(j int) error {
		lo, hi := j*bw, min(j*bw+bw, n)
		b := batchPool.Get().(*windowBatch)
		defer batchPool.Put(b)
		ws := b.ws[:hi-lo]
		for i := lo; i < hi; i++ {
			idx := i
			if sel != nil {
				idx = sel[i]
			}
			extract(ws[i-lo], origins[idx])
		}
		return k.EvalWindows(ws, vals[lo:hi], keep[lo:hi], opt)
	}); err != nil {
		return nil, err
	}
	return stream.Compact(vals, keep), nil
}

// Run evaluates kernels over src into a keyed result set. In-RAM
// sources run the kernels concurrently on the shared worker pool (the
// historical analyze shape: each windowed kernel additionally fans its
// windows out); Reader sources run them sequentially, because the
// memory budget bounds PEAK transform bytes and concurrent kernels
// would sum their working sets. Failures are wrapped with the failing
// kernel's error label and reported in kernel order — independent of
// scheduling — with ctx cancellation dominating.
func Run(ctx context.Context, src Source, kernels []Kernel, req Request) (map[string]float64, error) {
	outs := make([][]float64, len(kernels))
	errs := make([]error, len(kernels))
	one := func(i int) {
		k := kernels[i]
		opt := req.Opt[k.Name()]
		if g, ok := k.(GlobalKernel); ok {
			outs[i], errs[i] = g.EvalGlobal(ctx, src, req, opt)
			return
		}
		wk, ok := k.(WindowKernel)
		if !ok {
			errs[i] = fmt.Errorf("stat: kernel %q implements neither WindowKernel nor GlobalKernel", k.Name())
			return
		}
		vals, err := Windows(ctx, src, wk, req.Window, req.Workers, nil, opt)
		if err != nil {
			errs[i] = err
			return
		}
		outs[i], errs[i] = wk.Fold(vals, FoldInfo{Window: req.Window, Shape: src.Shape()}, opt)
	}
	if src.Streaming() {
		for i := range kernels {
			one(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		fns := make([]func(), len(kernels))
		for i := range kernels {
			i := i
			fns[i] = func() { one(i) }
		}
		parallel.Do(req.Workers, fns...)
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
