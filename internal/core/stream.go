package core

// Dataset-backed analysis under a memory budget. AnalyzeReaderCtx is
// the out-of-core sibling of AnalyzeFieldCtx: when the field (plus the
// spectral engine's padded planes, if requested) fits
// AnalysisOptions.MemBudget it slurps the file and delegates to the
// in-RAM pipeline on the stored lane; otherwise it streams every
// statistic through the TileReader. The streaming statistics run
// sequentially — the transform-pool budget bounds PEAK bytes, and
// running the three stats concurrently would sum their working sets —
// and their error wrapping follows the same fixed precedence as the
// in-RAM path (global variogram, local variogram, local SVD), so
// failures are reported identically either way.

import (
	"context"
	"fmt"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/variogram"
)

// inRAMBytes estimates the working set of an in-RAM analysis of the
// reader's field: the stored lane itself, plus the full-field spectral
// engine's transform working set (variogram.FFTPeakBytes on the stored
// lane) when the FFT variogram is on.
func inRAMBytes(tr *field.TileReader, o AnalysisOptions) int64 {
	est := int64(tr.Len()) * int64(tr.ElemBytes())
	if o.VariogramFFT {
		lag := o.VariogramOpts.MaxLag
		if lag <= 0 {
			lag = tr.MinDim() / 2
			if lag < 1 {
				lag = 1
			}
		}
		est += variogram.FFTPeakBytes(tr.Shape(), lag, tr.ElemBytes())
	}
	return est
}

// AnalyzeReader is AnalyzeReaderCtx without cancellation.
func AnalyzeReader(tr *field.TileReader, opts AnalysisOptions) (Statistics, error) {
	return AnalyzeReaderCtx(context.Background(), tr, opts)
}

// AnalyzeReaderCtx extracts the correlation statistics of a
// dataset-backed field under opts.MemBudget. Fits-in-budget files (and
// every file when the budget is <= 0) take the in-RAM path on their
// stored lane, bit-identical to opening the field directly. Larger
// files stream: the windowed statistics are bit-identical to in-RAM at
// any tile size, halo, and worker count; the global variogram is
// bit-identical on its sampled lane and exact-in-counts /
// tolerance-equivalent-in-Gamma on its sharded spectral lane.
func AnalyzeReaderCtx(ctx context.Context, tr *field.TileReader, opts AnalysisOptions) (Statistics, error) {
	o := opts.withDefaults()
	if o.MemBudget <= 0 || inRAMBytes(tr, o) <= o.MemBudget {
		f64, f32, err := tr.ReadAll()
		if err != nil {
			return Statistics{}, fmt.Errorf("core: read field: %w", err)
		}
		if f32 != nil {
			return AnalyzeField32Ctx(ctx, f32, o)
		}
		return AnalyzeFieldCtx(ctx, f64, o)
	}
	return analyzeSource(ctx, stat.Source{
		Reader: tr,
		Stream: field.StreamOptions{BudgetBytes: o.MemBudget},
	}, o)
}
