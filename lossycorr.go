// Package lossycorr explores lossy compressibility of scientific
// datasets through statistical correlations, reproducing Krasowska et
// al., "Exploring Lossy Compressibility through Statistical
// Correlations of Scientific Datasets" (SC 2021, arXiv:2111.13789).
//
// The package ties together three ingredients built from scratch in
// this repository:
//
//   - datasets: exact circulant-embedding Gaussian random fields with
//     controllable correlation ranges, and turbulence-like velocity
//     fields from a compressible-Euler solver (the Miranda substitute);
//   - correlation statistics: global and windowed variogram ranges and
//     windowed SVD truncation levels;
//   - error-bounded lossy compressors in the styles of SZ, ZFP, and
//     MGARD, measured by compression ratio under absolute error bounds;
//     each is written once for 2D and 3D fields on both element lanes.
//
// The headline API mirrors the paper's workflow (see
// ExampleAnalyzeField): generate a field, AnalyzeField it, MeasureField
// it with a codec. Every operation has one entry. Every statistic and
// measurement entry takes a context, fails on a dead one before any
// work, and takes a field on either lane, *Field (float64) or *Field32
// (float32). The one exception is the entropy estimator
// (QuantizedEntropy, EstimateEntropyRatio), whose ratio is stated
// against 64-bit values and so takes a *Field only.
// The full evaluation is regenerated by the Suite (Figures 1–7) or the
// cmd/figures binary.
package lossycorr

import (
	"context"
	"io"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/entropy"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/hydro"
	"lossycorr/internal/regression"
	"lossycorr/internal/sampling"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/variogram"
)

// Field is a dense scalar field of any rank; every generator, statistic
// and codec of the package takes or returns one. The last dimension
// varies fastest.
type Field = field.Field

// Elem is the element type of a field's lane: float64 for Field,
// float32 for Field32. The analysis and measurement entries accept
// either.
type Elem = field.Elem

// FieldOf is the field on lane T: Field is FieldOf[float64] and Field32
// is FieldOf[float32].
type FieldOf[T Elem] = field.Of[T]

// NewField returns a zero-filled field with the given shape.
func NewField(shape ...int) *Field { return field.New(shape...) }

// ReadField reads a field of any rank onto the float64 lane: the
// tagged format written by WriteBinary (a float32 payload is widened
// exactly), or rank-2 fields in the legacy 2D layout, auto-detected.
// Headers claiming more than maxElements are rejected before any
// payload allocation; 0 means the 2^30-element ceiling.
func ReadField(r io.Reader, maxElements int) (*Field, error) {
	return field.ReadBinaryLimit(r, maxElements)
}

// Field32 is the float32 compute lane of Field: same shape machinery,
// half the bytes per element through every transform plane, pooled
// buffer, and codec inner loop. The float64 lane stays the oracle —
// statistics computed on a Field32 are tolerance-pinned against (and,
// for the direct scans, bitwise equal to) the float64 pipeline over
// the exactly-widened field.
type Field32 = field.Field32

// NewField32 returns a zero-filled float32-lane field.
func NewField32(shape ...int) *Field32 { return field.New32(shape...) }

// ReadFieldAny reads a field on whichever lane the stream's element
// tag declares — exactly one of the two returns is non-nil. Legacy 2D
// streams and tagged float64 streams land on the Field lane; streams
// carrying the float32 element tag land on the Field32 lane. Headers
// claiming more than maxElements are rejected before any payload
// allocation.
func ReadFieldAny(r io.Reader, maxElements int) (*Field, *Field32, error) {
	return field.ReadAnyLimit(r, maxElements)
}

// TileReader is an out-of-core field: a validated LCF1 (or legacy 2D)
// file accessed block-by-block instead of slurped, on either element
// lane. It is safe for concurrent reads.
type TileReader = field.TileReader

// OpenFieldTiles opens a field file for out-of-core access. The header
// is validated against maxElements and the file's actual size before
// any payload allocation; the reader owns the file handle.
func OpenFieldTiles(path string, maxElements int) (*TileReader, error) {
	return field.OpenTileReader(path, maxElements)
}

// OpenFieldTilesMapped is OpenFieldTiles through a read-only memory
// map where the platform supports one (falling back to pread I/O
// elsewhere): block reads become page-cache copies.
func OpenFieldTilesMapped(path string, maxElements int) (*TileReader, error) {
	return field.OpenTileReaderMapped(path, maxElements)
}

// AnalyzeReader extracts all correlation statistics of an out-of-core
// field. With opts.MemBudget <= 0, or when the whole field (plus its
// transform planes, for the spectral lane) fits the budget, the field
// is slurped and analyzed in RAM on its stored lane; otherwise the
// analysis streams budget-sized tiles, with the windowed statistics
// bit-identical to the in-RAM pipeline and the transform pool's peak
// gauge (TransformPeakBytes) staying under the budget. Cancellation
// follows AnalyzeField.
func AnalyzeReader(ctx context.Context, tr *TileReader, opts AnalysisOptions) (Statistics, error) {
	return core.AnalyzeReaderCtx(ctx, tr, opts)
}

// TransformPeakBytes reports the high-water mark of live transform-pool
// bytes since the last ResetTransformPeakBytes — the gauge the
// out-of-core memory budget is enforced against.
func TransformPeakBytes() int64 { return fft.PeakBytes() }

// ResetTransformPeakBytes restarts the transform-pool peak gauge.
func ResetTransformPeakBytes() { fft.ResetPeakBytes() }

// GaussianParams configures a single-range Gaussian random field.
type GaussianParams = gaussian.Params

// GenerateGaussian draws a stationary rank-2 Gaussian field with
// squared-exponential covariance by exact circulant embedding.
func GenerateGaussian(p GaussianParams) (*Field, error) { return gaussian.Generate(p) }

// MultiGaussianParams configures an equal-contribution multi-range field.
type MultiGaussianParams = gaussian.MultiParams

// GenerateMultiGaussian draws a rank-2 multi-range Gaussian field.
func GenerateMultiGaussian(p MultiGaussianParams) (*Field, error) {
	return gaussian.GenerateMulti(p)
}

// TurbulenceSlices generates rank-2 velocityx snapshots from the
// built-in Kelvin–Helmholtz hydrodynamics solver (the Miranda
// substitute).
func TurbulenceSlices(n, count int, tEnd float64, seed uint64) ([]*Field, []float64, error) {
	set, err := hydro.GenerateSlices(n, count, tEnd, seed, 0)
	if err != nil {
		return nil, nil, err
	}
	return set.Slices, set.Times, nil
}

// VariogramOptions controls empirical variogram estimation.
type VariogramOptions = variogram.Options

// VariogramModel is a fitted squared-exponential variogram.
type VariogramModel = variogram.Model

// EstimateVariogramRange fits the global (isotropic) variogram range
// of a field of any rank.
func EstimateVariogramRange[T Elem](ctx context.Context, f *FieldOf[T], opts VariogramOptions) (VariogramModel, error) {
	if err := ctx.Err(); err != nil {
		return VariogramModel{}, err
	}
	return variogram.GlobalRange(ctx, stat.SourceOf(f), opts)
}

// LocalVariogramRangeStd is the std of per-window variogram ranges.
func LocalVariogramRangeStd[T Elem](ctx context.Context, f *FieldOf[T], window int, opts VariogramOptions) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return variogram.LocalRangeStd(ctx, stat.SourceOf(f), window, opts)
}

// SVDOptions controls windowed SVD statistics: the variance fraction
// (0 means 0.99, the paper's statistic) and the worker count.
type SVDOptions = svdstat.Options

// LocalSVDStd is the std of per-window SVD truncation levels; results
// are bit-identical at any worker count.
func LocalSVDStd[T Elem](ctx context.Context, f *FieldOf[T], window int, opts SVDOptions) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return svdstat.LocalStd(ctx, stat.SourceOf(f), window, opts)
}

// Gaussian3DParams configures a 3D single-range Gaussian field.
type Gaussian3DParams = gaussian.Params3D

// GenerateGaussian3D draws a rank-3 field with squared-exponential
// covariance by 3D circulant embedding — the paper's future-work 3D
// context with exactly controllable correlation.
func GenerateGaussian3D(p Gaussian3DParams) (*Field, error) { return gaussian.Generate3D(p) }

// Statistics is the keyed result set of an analysis: one entry per
// output of each statistic kernel that ran (absent ≠ zero — a
// deselected statistic has no entry). The paper's three statistics
// read through the accessor methods (GlobalRange, LocalRangeStd,
// LocalSVDStd) or the Stat* keys.
type Statistics = core.Statistics

// Statistics map keys of the built-in kernels.
const (
	StatGlobalRange   = core.StatGlobalRange
	StatGlobalSill    = core.StatGlobalSill
	StatLocalRangeStd = core.StatLocalRangeStd
	StatLocalSVDStd   = core.StatLocalSVDStd
)

// StatNames lists the registered statistic kernels in registration
// order — the names AnalysisOptions.Stats (and corrcomp's -stats
// flag) accept.
func StatNames() []string { return stat.Names() }

// AnalysisOptions configures AnalyzeField.
type AnalysisOptions = core.AnalysisOptions

// AnalyzeField extracts all correlation statistics of a field of any
// rank on either lane: H×H windows at rank 2, H×H×H windows at rank 3.
// On the float32 lane, statistics are tolerance-pinned against (and,
// for the direct scans, bitwise equal to) the float64 pipeline over the
// exactly widened field. Cancellation is threaded down into every
// statistic's parallel loops: when ctx dies, the analysis stops within
// roughly one unit of work (an offset sweep, a transform stage, or a
// window) and returns ctx.Err() — the contract corrcompd relies on to
// kill abandoned requests.
func AnalyzeField[T Elem](ctx context.Context, f *FieldOf[T], opts AnalysisOptions) (Statistics, error) {
	return core.AnalyzeFieldCtx(ctx, f, opts)
}

// Compressor is an error-bounded lossy compressor for the field ranks
// it declares, on both element lanes.
type Compressor = compress.FieldCompressor

// Result is one compression measurement.
type Result = compress.Result

// PaperErrorBounds are the paper's absolute error bounds
// {1e-5, 1e-4, 1e-3, 1e-2}.
var PaperErrorBounds = compress.PaperErrorBounds

// Compressors returns a registry with the built-in codecs: the 2D
// codecs of the study ("sz-like", "zfp-like", "mgard-like") plus their
// 3D extensions ("sz-like-3d", "zfp-like-3d", "mgard-like-3d"),
// dispatched by rank.
func Compressors() *compress.Registry { return core.DefaultRegistry() }

// CompressorsFor lists the built-in codecs accepting fields of the
// given rank (0 lists every codec).
func CompressorsFor(ndim int) []string { return core.DefaultRegistry().NamesFor(ndim) }

// MeasureField compresses, decompresses, and measures a field of any
// rank with the named built-in compressor, which must accept the
// field's rank, under an absolute error bound. A float32 field runs
// through the codec's native float32 lane and the bound is checked on
// float32 values. A dead ctx fails the call before the codec runs.
func MeasureField[T Elem](ctx context.Context, name string, f *FieldOf[T], absErr float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	c, err := core.DefaultRegistry().GetFor(name, f.NDim())
	if err != nil {
		return Result{}, err
	}
	return compress.RunField(c, f, absErr)
}

// MeasureRelative is MeasureField with a value-range-relative error
// bound (absolute bound = relErr × the field's value range), the error
// mode SZ exposes natively; the paper relies on the formal equivalence
// of the two modes.
func MeasureRelative[T Elem](ctx context.Context, name string, f *FieldOf[T], relErr float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	c, err := core.DefaultRegistry().GetFor(name, f.NDim())
	if err != nil {
		return Result{}, err
	}
	return compress.RunRelativeField(c, f, relErr)
}

// LogFit is a fitted CR = α + β·log(x) model.
type LogFit = regression.LogFit

// FitLog fits the paper's logarithmic regression.
func FitLog(x, y []float64) (LogFit, error) { return regression.FitLog(x, y) }

// Measurement couples a field's statistics with compression results.
type Measurement = core.Measurement

// MeasureOptions configures MeasureFieldSet.
type MeasureOptions = core.MeasureOptions

// MeasureFieldSet measures many fields of any rank (ranks 2 and 3
// can mix) on either lane concurrently; each field sweeps the codecs of
// its own rank. Cancellation is threaded through the field fan-out,
// each analysis, and the per-codec sweeps.
func MeasureFieldSet[T Elem](ctx context.Context, name string, fields []*FieldOf[T], labels []float64, opts MeasureOptions) ([]Measurement, error) {
	return core.MeasureFieldSetCtx(ctx, name, fields, labels, core.DefaultRegistry(), opts)
}

// StatSelector picks the x statistic of a fit (global range, local
// range std, local SVD std).
type StatSelector = core.StatSelector

// Statistic selectors for series building and predictor training.
const (
	XGlobalRange   = core.XGlobalRange
	XLocalRangeStd = core.XLocalRangeStd
	XLocalSVDStd   = core.XLocalSVDStd
)

// Series is one CR-versus-statistic curve with its fitted regression.
type Series = core.Series

// BuildSeries groups measurements per (compressor, bound) and fits the
// logarithmic model of metric against the selected statistic per
// group. YPSNR explores the paper's future-work question of how
// correlation structure affects reconstruction quality metrics.
func BuildSeries(ms []Measurement, sel StatSelector, metric Metric) []Series {
	return core.BuildSeries(ms, sel, metric)
}

// Metric selects the y quantity of a series (ratio or PSNR).
type Metric = core.Metric

// Series y-metric selectors.
const (
	YRatio = core.YRatio
	YPSNR  = core.YPSNR
)

// QuantizedEntropy is the Shannon entropy (bits per value) of the field
// quantized into 2·eb bins — the entropy-based compressibility
// estimator of the paper's related work. It and EstimateEntropyRatio
// take the float64 lane only: the ratio they give is stated against
// 64-bit values. A non-finite or non-positive eb is an error.
func QuantizedEntropy(f *Field, eb float64) (float64, error) {
	return entropy.QuantizedEntropy(f.Data, eb)
}

// EstimateEntropyRatio converts bits-per-value entropy into the
// entropy-bound compression ratio for float64 data.
func EstimateEntropyRatio(bitsPerValue float64) float64 {
	return entropy.EstimateRatio(bitsPerValue)
}

// SamplingOptions configures block-sampled statistic estimation.
type SamplingOptions = sampling.Options

// SampledLocalRangeStd estimates the local-variogram-range std from a
// random fraction of windows (the paper's future-work fast proxy).
func SampledLocalRangeStd[T Elem](ctx context.Context, f *FieldOf[T], window int, opts SamplingOptions) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return sampling.LocalRangeStd(ctx, stat.SourceOf(f), window, opts)
}

// SampledLocalSVDStd estimates the local-SVD-truncation std from a
// random fraction of windows.
func SampledLocalSVDStd[T Elem](ctx context.Context, f *FieldOf[T], window int, frac float64, opts SamplingOptions) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return sampling.LocalSVDStd(ctx, stat.SourceOf(f), window, frac, opts)
}

// SamplingSweepPoint is one accuracy point of the sampling sweep.
type SamplingSweepPoint = sampling.SweepPoint

// SweepSamplingFractions quantifies sampled-statistic accuracy versus
// sampling fraction for statName "range" or "svd". Seed and Workers come
// from opts; its Fraction field is ignored (the sweep supplies its
// own).
func SweepSamplingFractions[T Elem](ctx context.Context, f *FieldOf[T], window int, statName string, fractions []float64, opts SamplingOptions) ([]SamplingSweepPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sampling.SweepFractions(ctx, stat.SourceOf(f), window, statName, fractions, opts)
}

// Predictor estimates CR from correlation statistics.
type Predictor = core.Predictor

// TrainOptions tunes cross-validation during predictor training.
type TrainOptions = core.TrainOptions

// CVStats are k-fold cross-validation diagnostics of one fitted model.
type CVStats = regression.CVStats

// Prediction is a point CR estimate with its prediction interval.
type Prediction = core.Prediction

// ModelProvenance records how a persisted predictor was trained.
type ModelProvenance = core.ModelProvenance

// DefaultIntervalLevel is the prediction-interval confidence level used
// when a caller passes 0.
const DefaultIntervalLevel = core.DefaultIntervalLevel

// ModelSchema is the versioned identifier of persisted predictor files.
const ModelSchema = core.ModelSchema

// TrainPredictor fits prediction models from measurements, with k-fold
// cross-validation diagnostics per model; the zero TrainOptions give
// 5 folds.
func TrainPredictor(ms []Measurement, sel StatSelector, opts TrainOptions) (*Predictor, error) {
	return core.Train(ms, sel, opts)
}

// TrainConfig describes a synthetic training set for TrainRangeLadder;
// an Edge of 0 means DefaultTrainEdge2D or DefaultTrainEdge3D.
type TrainConfig = core.TrainConfig

// The default training recipe of corrcomp predict and of corrcompd's
// lazily trained models: DefaultTrainFields fields on the range ladder,
// DefaultTrainEdge2D on a side at rank 2 and DefaultTrainEdge3D at
// rank 3.
const (
	DefaultTrainFields = core.DefaultTrainFields
	DefaultTrainEdge2D = core.DefaultTrainEdge2D
	DefaultTrainEdge3D = core.DefaultTrainEdge3D
)

// TrainRangeLadder trains a predictor on the global range of Gaussian
// fields on a ladder of correlation ranges, the recipe of corrcomp
// predict and of corrcompd's lazily trained models, and returns it with
// its training fields.
func TrainRangeLadder(ctx context.Context, cfg TrainConfig) (*Predictor, []*Field, error) {
	return core.TrainRangeLadder(ctx, cfg)
}

// SavePredictor writes a predictor as versioned JSON (deterministic
// byte-for-byte for a given predictor); LoadPredictor restores it with
// bit-identical predictions.
func SavePredictor(w io.Writer, p *Predictor) error { return core.SavePredictor(w, p) }

// LoadPredictor reads a predictor saved by SavePredictor, rejecting
// unknown schema versions.
func LoadPredictor(r io.Reader) (*Predictor, error) { return core.LoadPredictor(r) }

// FigureConfig scales the figure-regeneration experiments.
type FigureConfig = core.FigureConfig

// Suite regenerates the paper's figures.
type Suite = core.Suite

// NewSuite prepares a figure suite.
func NewSuite(cfg FigureConfig) *Suite { return core.NewSuite(cfg) }
