// Package core implements the paper's contribution: the pipeline that
// characterizes correlation structure of 2D scientific fields
// (global/local variogram ranges, local SVD truncation levels), links
// those statistics to error-bounded lossy compression ratios through
// logarithmic regression models, and regenerates every figure of the
// evaluation. It also provides the forward application the paper
// motivates: predicting compression ratios from correlation statistics
// and selecting a compressor accordingly.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/mgardlike"
	"lossycorr/internal/parallel"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/szlike"
	"lossycorr/internal/variogram"
	"lossycorr/internal/zfplike"
)

// DefaultWindow is the paper's H=32 local-statistics window.
const DefaultWindow = 32

// The built-in statistic kernels register here, in the order that
// fixes the default run order and error precedence (global variogram,
// then local variogram, then local SVD — the historical analysis
// order). Additional kernels register themselves from their own
// package init; nothing in core needs to change for them to become
// selectable and listable.
func init() {
	stat.MustRegister(variogram.RangeKernel{})
	stat.MustRegister(variogram.LocalRangeKernel{})
	stat.MustRegister(svdstat.LevelKernel{})
}

// Result keys of the built-in kernels. The strings are the service
// layer's wire contract (JSON object keys) and the Statistics map
// keys.
const (
	StatGlobalRange   = "globalRange"   // estimated global variogram range (Figures 3, 4)
	StatGlobalSill    = "globalSill"    // fitted sill (≈ field variance)
	StatLocalRangeStd = "localRangeStd" // std of local variogram ranges, H windows (Figure 5, 7-left)
	StatLocalSVDStd   = "localSVDStd"   // std of local SVD truncation levels (Figure 6, 7-right)
)

// Statistics is the keyed result set of an analysis: one entry per
// output of each kernel that ran. Statistics that were not computed
// (deselected kernels, SkipLocal) are absent — not zero values
// masquerading as results — and marshal as absent JSON keys. The
// accessor methods read the built-in kernels' outputs, returning 0
// when absent.
type Statistics map[string]float64

// GlobalRange is the estimated global variogram range.
func (s Statistics) GlobalRange() float64 { return s[StatGlobalRange] }

// GlobalSill is the fitted sill (≈ field variance).
func (s Statistics) GlobalSill() float64 { return s[StatGlobalSill] }

// LocalRangeStd is the std of local variogram ranges over H-windows.
func (s Statistics) LocalRangeStd() float64 { return s[StatLocalRangeStd] }

// LocalSVDStd is the std of local SVD truncation levels.
func (s Statistics) LocalSVDStd() float64 { return s[StatLocalSVDStd] }

// Has reports whether the statistic under key was computed.
func (s Statistics) Has(key string) bool {
	_, ok := s[key]
	return ok
}

// Equal reports whether two result sets carry exactly the same keys
// and bits (NaNs compare equal to themselves, so a degenerate
// statistic still round-trips).
func (s Statistics) Equal(o Statistics) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		w, ok := o[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// MarshalJSON clamps non-finite statistics to the same sentinels
// compress.Result uses for PSNR (±1e308 for infinities, 0 for NaN): a
// degenerate field (e.g. constant values) can produce NaN or Inf here,
// which encoding/json rejects, and a marshal failure inside a handler
// would otherwise truncate an already-committed response. Keys marshal
// in sorted order (encoding/json's map behavior), keeping responses
// and cache digests deterministic.
func (s Statistics) MarshalJSON() ([]byte, error) {
	w := make(map[string]float64, len(s))
	for k, v := range s {
		switch {
		case math.IsInf(v, 1):
			v = 1e308
		case math.IsInf(v, -1):
			v = -1e308
		case math.IsNaN(v):
			v = 0
		}
		w[k] = v
	}
	return json.Marshal(w)
}

// AnalysisOptions configures statistic extraction.
type AnalysisOptions struct {
	// Window is the local window H; 0 means DefaultWindow. Every
	// selected windowed kernel must accept it (local range needs H ≥ 4,
	// local SVD H ≥ 2), else the analysis fails before any work.
	Window        int
	VariogramOpts variogram.Options // empirical variogram controls
	// VarianceFraction is the SVD threshold; 0 means 0.99. It must lie
	// in (0,1] whatever the selection: an out-of-range fraction fails
	// the analysis even when "svd" is not selected, which earlier
	// versions let pass.
	VarianceFraction float64
	SkipLocal        bool // global range only (cheaper)
	// SVDGram is vestigial: struct{} has one value, so it selects
	// nothing and the local SVD statistic has one level path. It
	// stays only because bench/workloads.go still copies it into
	// svdstat.Options.Gram; both go with that line.
	SVDGram struct{}
	// VariogramFFT selects the FFT exact engine for the global
	// variogram scan (variogram.Options.FFT): every lag at once from
	// one zero-padded autocorrelation of the mean-centered field,
	// O(P log P) instead of O(N·L^d), one real-input forward and one
	// inverse transform over FastLen-padded extents on either lane
	// (working set variogram.FFTPeakBytes). Pair counts match the
	// direct scan exactly and Gamma to ~1e-14 relative; windowed
	// statistics keep the direct per-window scan either way.
	VariogramFFT bool
	// Workers sizes each worker pool of the analysis rather than capping
	// total goroutines: the global variogram and then the one window
	// sweep each fan out over their own pool, and nested pools (such as
	// MeasureFieldSet's) can raise peak concurrency to a small multiple
	// of Workers (the Go scheduler multiplexes them onto GOMAXPROCS threads).
	// 0 means GOMAXPROCS per pool; 1 forces the fully serial path.
	// Results are bit-identical for every value.
	Workers int
	// MemBudget caps the transform-pool bytes of a dataset-backed
	// analysis (AnalyzeReaderCtx). When the widened field — plus the
	// spectral engine's padded planes (SpectralPeakBytes) if the
	// analysis runs that engine: VariogramFFT or VariogramOpts.FFT is
	// set and Stats (empty meaning all) includes "variogram" — fits the
	// budget, the file is slurped and analyzed in RAM; otherwise the
	// analysis streams:
	// windowed statistics run tile-by-tile (results bit-identical to
	// in-RAM at any tile size and worker count), the global variogram
	// runs its sampled scan in budget-sized chunks of span reads
	// (bit-identical) or the sharded spectral engine (pair counts
	// exact, Gamma tolerance-equivalent).
	// <= 0 means no budget: always slurp. In-RAM entry points ignore
	// this field.
	MemBudget int64
	// Stats selects the statistics to compute, by registered kernel
	// name (stat.Names; built-ins: "variogram", "localrange", "svd").
	// Empty means every registered kernel. Selection never changes a
	// kernel's arithmetic or the run's ordering contract — kernels
	// always run in registration order — only which results are present
	// in the Statistics map. Unknown names fail the analysis before any
	// work starts.
	Stats []string
}

// ErrInvalidOptions marks options that cannot start an analysis,
// whatever the field; every error of CheckAnalysis wraps it.
var ErrInvalidOptions = errors.New("invalid analysis options")

// CheckAnalysis is the one statement of which options can start an
// analysis: every selected statistic is registered and SkipLocal leaves
// one, the variance fraction lies in (0,1], and every selected window
// kernel accepts the window (stat.WindowKernel.CheckWindow). Every
// analysis runs it before any kernel starts.
func CheckAnalysis(opts AnalysisOptions) error {
	_, err := selectKernels(opts.withDefaults())
	return err
}

// ReadsOptions reports which of the window and the variance fraction
// an analysis with opts reads: the window when a selected kernel is
// windowed, the fraction when the local SVD ("svd") is selected. A
// result depends on no option the analysis does not read, so a cache
// key need not hold it. opts must pass CheckAnalysis.
func ReadsOptions(opts AnalysisOptions) (window, frac bool) {
	ks, _ := selectKernels(opts.withDefaults())
	for _, k := range ks {
		window = window || k.Caps().Windowed
		frac = frac || k.Name() == (svdstat.LevelKernel{}).Name()
	}
	return window, frac
}

func (o AnalysisOptions) withDefaults() AnalysisOptions {
	// Either flag selects the spectral engine; later code reads only
	// VariogramOpts.FFT.
	o.VariogramOpts.FFT = o.VariogramOpts.FFT || o.VariogramFFT
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.VarianceFraction == 0 {
		o.VarianceFraction = svdstat.DefaultVarianceFraction
	}
	return o
}

// AnalyzeFieldCtx extracts the correlation statistics of a field of
// any rank (H×H windows for grids, H×H×H windows for volumes; the SVD
// statistic unfolds higher-rank windows along their first extent). The
// global variogram runs first, then one window sweep serves both
// windowed statistics; each fans its work out over the shared worker
// pool. Error precedence is fixed (global, then local
// variogram, then local SVD) so failures are reported identically at
// any worker count.
//
// Cancellation is threaded through every statistic: the variogram
// scans check ctx per offset (direct) or per transform stage (FFT), and
// both windowed statistics check it per batch of windows, so a
// long-running analysis stops within roughly one unit of work of the
// cancel and returns ctx.Err(). Cancellation dominates the fixed
// statistic error precedence — once the context is dead the
// per-statistic errors are all cancellations anyway, and reporting
// ctx.Err() keeps the outcome deterministic.
//
// On the float32 lane the windowed statistics widen each window exactly
// into oracle precision during extraction (bit-identical to the float64
// lane on the widened field), the direct variogram scans accumulate in
// float64, and the FFT engine widens the field into its float64 plane.
func AnalyzeFieldCtx[T field.Elem](ctx context.Context, f *field.Of[T], opts AnalysisOptions) (Statistics, error) {
	return analyzeSource(ctx, stat.SourceOf(f), opts)
}

// AnalyzeField32Ctx is AnalyzeFieldCtx on the float32 lane. It is kept
// only for the callers that name it: the benchmark module and the
// statistics golden test.
func AnalyzeField32Ctx(ctx context.Context, f *field.Field32, opts AnalysisOptions) (Statistics, error) {
	return AnalyzeFieldCtx(ctx, f, opts)
}

// selectKernels is CheckAnalysis on defaulted options, returning the
// selection resolved against the registry in registration order —
// which fixes run order and error precedence regardless of how the
// selection is spelled. SkipLocal drops windowed kernels from the
// selection (the historical global-only cheap path).
func selectKernels(o AnalysisOptions) ([]stat.Kernel, error) {
	invalid := func(format string, args ...any) ([]stat.Kernel, error) {
		return nil, fmt.Errorf("core: %w: "+format, append([]any{ErrInvalidOptions}, args...)...)
	}
	var want map[string]bool
	if len(o.Stats) > 0 {
		want = make(map[string]bool, len(o.Stats))
		for _, name := range o.Stats {
			if _, ok := stat.Lookup(name); !ok {
				return invalid("unknown statistic %q (registered: %s)", name, strings.Join(stat.Names(), ", "))
			}
			want[name] = true
		}
	}
	// Written so NaN fails too.
	if !(o.VarianceFraction > 0 && o.VarianceFraction <= 1) {
		return invalid("variance fraction %v outside (0,1]", o.VarianceFraction)
	}
	var ks []stat.Kernel
	for _, k := range stat.Kernels() {
		if want != nil && !want[k.Name()] || o.SkipLocal && k.Caps().Windowed {
			continue
		}
		if wk, ok := k.(stat.WindowKernel); ok {
			if err := wk.CheckWindow(o.Window); err != nil {
				return invalid("%w", err)
			}
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return invalid("empty statistic selection")
	}
	return ks, nil
}

// analyzeSource is the one analysis call behind every Analyze*Ctx
// entry point: it checks the options (CheckAnalysis), assembles per-kernel
// options from AnalysisOptions, and hands the source to the stat
// engine, which owns lane handling, streaming, cancellation, and
// worker fan-out. Every (lane, source, ctx) combination of the old
// variant matrix is one call here with a different stat.Source.
func analyzeSource(ctx context.Context, src stat.Source, opts AnalysisOptions) (Statistics, error) {
	o := opts.withDefaults()
	kernels, err := selectKernels(o)
	if err != nil {
		return nil, err
	}
	vOpts := o.VariogramOpts
	if vOpts.Workers == 0 {
		vOpts.Workers = o.Workers
	}
	req := stat.Request{
		Window:  o.Window,
		Workers: o.Workers,
		Opt: map[string]any{
			"variogram":  vOpts,
			"localrange": vOpts,
			"svd": svdstat.Options{
				Frac: o.VarianceFraction, Workers: o.Workers,
			},
		},
	}
	res, err := stat.Run(ctx, src, kernels, req)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	return Statistics(res), nil
}

// DefaultRegistry returns the compressors of the study: the paper's
// three 2D codecs plus their 3D extensions, dispatched by field rank.
func DefaultRegistry() *compress.Registry {
	r := compress.NewRegistry()
	// Registration of the built-in codecs cannot collide.
	for _, c := range []compress.FieldCompressor{
		szlike.Compressor{}, zfplike.Compressor{}, mgardlike.Compressor{},
		szlike.Compressor{Rank: 3}, zfplike.Compressor{Rank: 3}, mgardlike.Compressor{Rank: 3},
	} {
		_ = r.RegisterField(c)
	}
	return r
}

// Measurement couples one field's statistics with its compression
// results across compressors and error bounds. The JSON field names
// are the service layer's wire contract.
type Measurement struct {
	Dataset string            `json:"dataset"`
	Index   int               `json:"index"` // field index within the dataset
	Label   float64           `json:"label"` // generating parameter when known (e.g. true range)
	Stats   Statistics        `json:"stats"`
	Results []compress.Result `json:"results"`
}

// MeasureOptions configures MeasureFieldSetCtx.
type MeasureOptions struct {
	Analysis    AnalysisOptions
	ErrorBounds []float64 // nil means compress.PaperErrorBounds
	// Workers bounds the field-level fan-out, each field's fan-out
	// over its codec × bound cells, and (unless Analysis.Workers
	// overrides it) the per-field statistic fan-out. 0 means
	// GOMAXPROCS; 1 forces fully serial measurement. Results are
	// bit-identical for every value.
	Workers int
}

// MeasureFieldSetCtx analyzes and compresses every field with every
// registered compressor accepting its rank, at every error bound,
// fanning fields out over the shared worker pool, and each field's
// codec × bound cells out over a nested pool. Grids and volumes can be
// mixed in one set — each field sweeps the codecs of its own rank.
// Float32 fields run every codec through its native float32 lane, and
// the bound is checked on float32 values. Results keep the input field
// order, and each field's results are codec-major, bound-minor; on
// failure the error of the lowest-indexed failing field is returned,
// and within a field that of its lowest failing cell, independent of
// scheduling. The field fan-out, each field's statistics, and the cell
// fan-out all check ctx, so a dead context abandons the batch within
// one codec run or statistic unit and returns ctx.Err().
func MeasureFieldSetCtx[T field.Elem](ctx context.Context, name string, fields []*field.Of[T], labels []float64,
	reg *compress.Registry, opts MeasureOptions) ([]Measurement, error) {
	ebs := opts.ErrorBounds
	if ebs == nil {
		ebs = compress.PaperErrorBounds
	}
	aOpts := opts.Analysis
	if aOpts.Workers == 0 {
		aOpts.Workers = opts.Workers
	}
	out := make([]Measurement, len(fields))
	err := parallel.ForErrCtx(ctx, len(fields), opts.Workers, func(i int) error {
		var err error
		out[i], err = measureOne(ctx, name, i, fields[i], labels, reg, ebs, aOpts, opts.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measureOne measures field i: its statistics, then every codec × bound
// cell on a pool of up to workers. At most one of its cells encodes at
// a time, so the cells overlap only one encode with the others' decode
// and bound checks: an encode is most of a cell's time and holds the
// largest scratch (the lossless stage's level-9 flate writer, the
// entropy stage's tables), and serializing it keeps one set of that
// scratch in use per measurement.
func measureOne[T field.Elem](ctx context.Context, name string, i int, f *field.Of[T], labels []float64,
	reg *compress.Registry, ebs []float64, aOpts AnalysisOptions, workers int) (Measurement, error) {

	m := Measurement{Dataset: name, Index: i}
	if i < len(labels) {
		m.Label = labels[i]
	}
	var err error
	m.Stats, err = AnalyzeFieldCtx(ctx, f, aOpts)
	if err != nil {
		return m, err
	}
	codecs := reg.AllFor(f.NDim())
	if len(codecs) == 0 {
		return m, fmt.Errorf("core: field %d: no compressors registered for rank %d", i, f.NDim())
	}
	cells := len(codecs) * len(ebs)
	if cells == 0 {
		return m, nil
	}
	results := make([]compress.Result, cells)
	var encoding sync.Mutex
	err = parallel.ForErrCtx(ctx, cells, workers, func(k int) error {
		c, eb := codecs[k/len(ebs)], ebs[k%len(ebs)]
		encoding.Lock()
		data, err := compress.EncodeField(c, f, eb)
		encoding.Unlock()
		if err != nil {
			return fmt.Errorf("core: field %d: %w", i, err)
		}
		res, err := compress.VerifyField(c, f, eb, data)
		if err != nil {
			return fmt.Errorf("core: field %d: %w", i, err)
		}
		if !res.BoundOK {
			return fmt.Errorf("core: field %d: %s violated bound %g (max err %g)",
				i, c.Name(), eb, res.MaxAbsError)
		}
		results[k] = res
		return nil
	})
	if err != nil {
		return m, err
	}
	m.Results = results
	return m, nil
}
