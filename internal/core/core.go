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
	"fmt"
	"math"
	"strings"

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
	Window           int               // local window H; 0 means DefaultWindow
	VariogramOpts    variogram.Options // empirical variogram controls
	VarianceFraction float64           // SVD threshold; 0 means 0.99
	SkipLocal        bool              // global range only (cheaper)
	// SVDGram selects the level path of the local SVD statistic. The
	// zero value is svdstat's Gram-matrix fast path (levels from the
	// AᵀA/AAᵀ eigenproblem; agrees with the full-SVD path up to
	// eigensolver roundoff at the truncation threshold), now the
	// default; svdstat.GramOff restores the historical full-SVD
	// arithmetic bit-identically.
	SVDGram svdstat.GramMode
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
	// spectral engine's padded planes, if VariogramFFT is set — fits the
	// budget, the file is slurped and analyzed in RAM; otherwise the
	// analysis streams: windowed statistics run tile-by-tile (results
	// bit-identical to in-RAM at any tile size and worker count), the
	// global variogram runs its sampled scan in budget-sized chunks
	// of span reads (bit-identical) or, with VariogramFFT, the sharded
	// spectral engine (pair counts exact, Gamma tolerance-equivalent).
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

func (o AnalysisOptions) withDefaults() AnalysisOptions {
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
// float64, and the FFT engine runs float32 planes.
func AnalyzeFieldCtx[T field.Elem](ctx context.Context, f *field.Of[T], opts AnalysisOptions) (Statistics, error) {
	return analyzeSource(ctx, stat.SourceOf(f), opts)
}

// AnalyzeField32Ctx is AnalyzeFieldCtx on the float32 lane. It is kept
// only for the callers that name it: the benchmark module and the
// statistics golden test.
func AnalyzeField32Ctx(ctx context.Context, f *field.Field32, opts AnalysisOptions) (Statistics, error) {
	return AnalyzeFieldCtx(ctx, f, opts)
}

// selectKernels resolves the options' statistic selection against the
// registry, in registration order — which fixes run order and error
// precedence regardless of how the selection is spelled. SkipLocal
// drops windowed kernels from the selection (the historical
// global-only cheap path).
func selectKernels(o AnalysisOptions) ([]stat.Kernel, error) {
	var want map[string]bool
	if len(o.Stats) > 0 {
		want = make(map[string]bool, len(o.Stats))
		for _, name := range o.Stats {
			if _, ok := stat.Lookup(name); !ok {
				return nil, fmt.Errorf("unknown statistic %q (registered: %s)",
					name, strings.Join(stat.Names(), ", "))
			}
			want[name] = true
		}
	}
	var ks []stat.Kernel
	for _, k := range stat.Kernels() {
		if want != nil && !want[k.Name()] {
			continue
		}
		if o.SkipLocal && k.Caps().Windowed {
			continue
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("empty statistic selection")
	}
	return ks, nil
}

// analyzeSource is the one analysis call behind every Analyze*Ctx
// entry point: it resolves the kernel selection, assembles per-kernel
// options from AnalysisOptions, and hands the source to the stat
// engine, which owns lane handling, streaming, cancellation, and
// worker fan-out. Every (lane, source, ctx) combination of the old
// variant matrix is one call here with a different stat.Source.
func analyzeSource(ctx context.Context, src stat.Source, opts AnalysisOptions) (Statistics, error) {
	o := opts.withDefaults()
	kernels, err := selectKernels(o)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	vOpts := o.VariogramOpts
	if vOpts.Workers == 0 {
		vOpts.Workers = o.Workers
	}
	if o.VariogramFFT {
		vOpts.FFT = true
	}
	req := stat.Request{
		Window:  o.Window,
		Workers: o.Workers,
		Opt: map[string]any{
			"variogram":  vOpts,
			"localrange": vOpts,
			"svd": svdstat.Options{
				Frac: o.VarianceFraction, Workers: o.Workers, Gram: o.SVDGram,
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
	// Workers bounds the field-level fan-out (and, unless
	// Analysis.Workers overrides it, the per-field statistic fan-out).
	// 0 means GOMAXPROCS; 1 forces serial measurement.
	Workers int
}

// MeasureFieldSetCtx analyzes and compresses every field with every
// registered compressor accepting its rank, at every error bound,
// fanning fields out over the shared worker pool. Grids and volumes
// can be mixed in one set — each field sweeps the codecs of its own
// rank. Float32 fields run every codec through its native float32 lane,
// and the bound is checked on float32 values. Results keep the input
// field order; on failure the error of the lowest-indexed failing field
// is returned, independent of scheduling. The field fan-out, each
// field's statistics, and the per-codec sweep all check ctx, so a dead
// context abandons the batch within one codec run or statistic unit and
// returns ctx.Err().
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
		out[i], err = measureOne(ctx, name, i, fields[i], labels, reg, ebs, aOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func measureOne[T field.Elem](ctx context.Context, name string, i int, f *field.Of[T], labels []float64,
	reg *compress.Registry, ebs []float64, aOpts AnalysisOptions) (Measurement, error) {

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
	for _, c := range codecs {
		for _, eb := range ebs {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return m, err
				}
			}
			res, err := compress.RunField(c, f, eb)
			if err != nil {
				return m, fmt.Errorf("core: field %d: %w", i, err)
			}
			if !res.BoundOK {
				return m, fmt.Errorf("core: field %d: %s violated bound %g (max err %g)",
					i, c.Name(), eb, res.MaxAbsError)
			}
			m.Results = append(m.Results, res)
		}
	}
	return m, nil
}
