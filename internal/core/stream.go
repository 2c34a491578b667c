package core

// Dataset-backed analysis under a memory budget. AnalyzeReaderCtx is
// the out-of-core sibling of AnalyzeFieldCtx: when the field (plus the
// spectral engine's padded planes, if the analysis runs it) fits
// AnalysisOptions.MemBudget it slurps the file and analyzes it in RAM
// on the stored lane; otherwise it streams every statistic through the
// TileReader. The global variogram and the one window sweep of the
// local statistics run one after another, as in RAM (the budget bounds
// PEAK bytes, which concurrent stages would sum), and errors follow the
// same fixed precedence as the in-RAM path (global variogram, local
// variogram, local SVD), so failures are reported identically.

import (
	"context"
	"fmt"
	"slices"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/variogram"
)

// SpectralPeakBytes is the transform working set an in-RAM analysis of
// a field of shape under o spends on the full-field spectral engine
// (variogram.FFTPeakBytes, the same on either lane), or 0 when the
// analysis runs no spectral global variogram: the FFT is off, or the
// selection o.Stats (empty meaning every kernel) leaves out "variogram".
func SpectralPeakBytes(shape []int, opts AnalysisOptions) int64 {
	o := opts.withDefaults()
	if !o.VariogramOpts.FFT || (len(o.Stats) > 0 && !slices.Contains(o.Stats, "variogram")) {
		return 0
	}
	return variogram.FFTPeakBytes(shape, o.VariogramOpts.MaxLag)
}

// inRAMBytes estimates the working set of an in-RAM analysis of the
// reader's field: the stored lane itself plus SpectralPeakBytes.
func inRAMBytes(tr *field.TileReader, o AnalysisOptions) int64 {
	return int64(tr.Len())*int64(tr.ElemBytes()) + SpectralPeakBytes(tr.Shape(), o)
}

// AnalyzeReaderCtx extracts the correlation statistics of a
// dataset-backed field under opts.MemBudget. Fits-in-budget files (and
// every file when the budget is <= 0) take the in-RAM path on their
// stored lane, bit-identical to opening the field directly. Larger
// files stream: the windowed statistics are bit-identical to in-RAM at
// any tile size and worker count; the global variogram is
// bit-identical on its sampled lane and exact-in-counts /
// tolerance-equivalent-in-Gamma on its sharded spectral lane. Options
// that CheckAnalysis rejects fail before the file is read.
func AnalyzeReaderCtx(ctx context.Context, tr *field.TileReader, opts AnalysisOptions) (Statistics, error) {
	o := opts.withDefaults()
	if err := CheckAnalysis(o); err != nil {
		return Statistics{}, err
	}
	if o.MemBudget <= 0 || inRAMBytes(tr, o) <= o.MemBudget {
		f64, f32, err := tr.ReadAll()
		if err != nil {
			return Statistics{}, fmt.Errorf("core: read field: %w", err)
		}
		// ReadAll sets exactly one lane, as a Source requires.
		return analyzeSource(ctx, stat.Source{F64: f64, F32: f32}, o)
	}
	return analyzeSource(ctx, stat.Source{
		Reader: tr,
		Stream: field.StreamOptions{BudgetBytes: o.MemBudget},
	}, o)
}
