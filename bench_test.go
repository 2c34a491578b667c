package lossycorr

// The benchmark harness regenerates every figure of the paper's
// evaluation (Figures 1–7, as core.Suite builds them) and measures
// component throughput. Figure benches run the full pipeline — dataset
// generation, statistic extraction, compression across codecs and error
// bounds, and the α + β·log(x) fits — at a laptop-scale default of
// 96×96 fields; set LOSSYCORR_N=1028 to reproduce at paper scale.
//
// Reported custom metrics: CR* gauges are mean compression ratios of a
// series, beta* gauges the fitted log-regression slopes (the paper's β)
// and R2* their goodness of fit, so trend direction and strength are
// visible straight from `go test -bench`.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"testing"

	"lossycorr/internal/core"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/hydro"
	"lossycorr/internal/parallel"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/szlike"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

func benchSize() int {
	if s := os.Getenv("LOSSYCORR_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 32 {
			return n
		}
	}
	return 96
}

func benchConfig() FigureConfig {
	return FigureConfig{
		Size:          benchSize(),
		Replicates:    1,
		MirandaSlices: 3,
		Seed:          1,
	}
}

// reportSeries publishes per-series gauges for a figure.
func reportSeries(b *testing.B, fig *core.Figure) {
	b.Helper()
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			if len(s.Y) == 0 {
				continue
			}
			var mean float64
			for _, y := range s.Y {
				mean += y
			}
			mean /= float64(len(s.Y))
			tag := fmt.Sprintf("%s@%.0e", s.Compressor, s.ErrorBound)
			b.ReportMetric(mean, "CR:"+tag)
			if s.FitOK {
				b.ReportMetric(s.Fit.Beta, "beta:"+tag)
				b.ReportMetric(s.Fit.R2, "R2:"+tag)
			}
		}
	}
}

// BenchmarkFig1Variogram regenerates the illustrative variogram of
// Figure 1 (empirical + fitted + theoretical curves).
func BenchmarkFig1Variogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		if err := s.Figure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Gallery regenerates the dataset gallery of Figure 2.
func BenchmarkFig2Gallery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		if err := s.Figure2(io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3GaussianGlobalRange regenerates Figure 3: CR vs global
// variogram range on single-range and multi-range Gaussian fields.
func BenchmarkFig3GaussianGlobalRange(b *testing.B) {
	var fig *core.Figure
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		var err error
		fig, err = s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig4MirandaGlobalRange regenerates Figure 4: CR vs global
// variogram range on the Miranda-substitute turbulence slices.
func BenchmarkFig4MirandaGlobalRange(b *testing.B) {
	var fig *core.Figure
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		var err error
		fig, err = s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig5GaussianLocalRangeStd regenerates Figure 5: CR vs std of
// local variogram ranges (H=32).
func BenchmarkFig5GaussianLocalRangeStd(b *testing.B) {
	var fig *core.Figure
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		var err error
		fig, err = s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig6GaussianLocalSVD regenerates Figure 6: CR vs std of
// local SVD truncation levels (H=32), SZ and ZFP only.
func BenchmarkFig6GaussianLocalSVD(b *testing.B) {
	var fig *core.Figure
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		var err error
		fig, err = s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// BenchmarkFig7MirandaLocalStats regenerates Figure 7: CR vs both local
// statistics on the Miranda-substitute slices.
func BenchmarkFig7MirandaLocalStats(b *testing.B) {
	var fig *core.Figure
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		var err error
		fig, err = s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig)
}

// ---- component throughput -------------------------------------------------

func benchField(b *testing.B, rang float64) *field.Field {
	b.Helper()
	f, err := gaussian.Generate(gaussian.Params{Rows: 256, Cols: 256, Range: rang, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func benchCompress(b *testing.B, name string, eb float64) {
	f := benchField(b, 16)
	c, err := Compressors().GetFor(name, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := c.CompressField(f, eb)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(f.SizeBytes())/float64(size), "ratio")
}

func benchDecompress(b *testing.B, name string, eb float64) {
	f := benchField(b, 16)
	c, err := Compressors().GetFor(name, 2)
	if err != nil {
		b.Fatal(err)
	}
	data, err := c.CompressField(f, eb)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressField(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZLikeCompress(b *testing.B)      { benchCompress(b, "sz-like", 1e-3) }
func BenchmarkSZLikeDecompress(b *testing.B)    { benchDecompress(b, "sz-like", 1e-3) }
func BenchmarkZFPLikeCompress(b *testing.B)     { benchCompress(b, "zfp-like", 1e-3) }
func BenchmarkZFPLikeDecompress(b *testing.B)   { benchDecompress(b, "zfp-like", 1e-3) }
func BenchmarkMGARDLikeCompress(b *testing.B)   { benchCompress(b, "mgard-like", 1e-3) }
func BenchmarkMGARDLikeDecompress(b *testing.B) { benchDecompress(b, "mgard-like", 1e-3) }

// ---- extensions (paper future work) ----------------------------------------

// BenchmarkExtPSNRvsRange explores the paper's future-work question:
// how does correlation structure affect reconstruction quality (PSNR)?
// It reports fitted PSNR = α + β·log(range) slopes per codec.
func BenchmarkExtPSNRvsRange(b *testing.B) {
	var series []core.Series
	for i := 0; i < b.N; i++ {
		s := NewSuite(benchConfig())
		ms, err := s.SingleRangeMeasurements()
		if err != nil {
			b.Fatal(err)
		}
		series = BuildSeries(ms, XGlobalRange, YPSNR)
	}
	for _, sr := range series {
		if sr.FitOK {
			tag := fmt.Sprintf("%s@%.0e", sr.Compressor, sr.ErrorBound)
			b.ReportMetric(sr.Fit.Beta, "psnrBeta:"+tag)
		}
	}
}

// BenchmarkExtEntropyEstimator compares the related-work entropy-based
// CR estimator against measured sz-like ratios across the range sweep.
func BenchmarkExtEntropyEstimator(b *testing.B) {
	n := benchSize()
	var entropyRatio, actualRatio float64
	for i := 0; i < b.N; i++ {
		f, err := GenerateGaussian(GaussianParams{Rows: n, Cols: n, Range: float64(n) / 16, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		h, err := QuantizedEntropy(f, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		entropyRatio = EstimateEntropyRatio(h)
		res, err := MeasureField(b.Context(), "sz-like", f, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		actualRatio = res.Ratio
	}
	b.ReportMetric(entropyRatio, "entropyCR")
	b.ReportMetric(actualRatio, "szCR")
}

// BenchmarkExtSampledStatistics measures the sampling-fraction
// accuracy/cost trade-off of the windowed statistics (the paper's
// future-work fast proxy).
func BenchmarkExtSampledStatistics(b *testing.B) {
	n := benchSize()
	f, err := GenerateGaussian(GaussianParams{Rows: n, Cols: n, Range: float64(n) / 16, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 1} {
		frac := frac
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			var est float64
			for i := 0; i < b.N; i++ {
				var err error
				est, err = SampledLocalRangeStd(b.Context(), f, 32, SamplingOptions{Fraction: frac, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(est, "rangeStd")
		})
	}
}

// BenchmarkExt3DPipeline measures the 3D extension end to end: 3D field
// generation, 3D variogram range estimation, and 3D SZ-like
// compression, reporting the estimated range and ratio.
func BenchmarkExt3DPipeline(b *testing.B) {
	var est, ratio float64
	for i := 0; i < b.N; i++ {
		vol, err := GenerateGaussian3D(Gaussian3DParams{Nz: 32, Ny: 32, Nx: 32, Range: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		m, err := EstimateVariogramRange(b.Context(), vol, VariogramOptions{MaxPairs: 200000})
		if err != nil {
			b.Fatal(err)
		}
		est = m.Range
		r, err := MeasureField(b.Context(), "sz-like-3d", vol, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(est, "estRange")
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkUnified3DPipeline exercises the dimension-generic pipeline
// end to end on a volume: AnalyzeField (all three statistics over
// H×H×H windows) plus a registry-dispatched 3D codec sweep — the same
// code path the 2D benchmarks above exercise, through the field layer.
func BenchmarkUnified3DPipeline(b *testing.B) {
	f, err := GenerateGaussian3D(Gaussian3DParams{Nz: 32, Ny: 32, Nx: 32, Range: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := AnalyzeField(b.Context(), f, AnalysisOptions{Window: 16})
		if err != nil {
			b.Fatal(err)
		}
		if stats.GlobalRange() <= 0 {
			b.Fatal("degenerate analysis")
		}
		for _, name := range CompressorsFor(3) {
			res, err := MeasureField(b.Context(), name, f, 1e-3)
			if err != nil {
				b.Fatal(err)
			}
			ratio = res.Ratio
		}
	}
	b.ReportMetric(ratio, "lastRatio")
}

// ---- ablations --------------------------------------------------------------

// BenchmarkAblationSZPredictors quantifies what each of the SZ-like
// codec's two predictors contributes: auto selection vs Lorenzo-only vs
// regression-only on the same field. SZ picks the better predictor per
// block, so each single-predictor run shows what that choice adds.
func BenchmarkAblationSZPredictors(b *testing.B) {
	f := benchField(b, 16)
	for _, c := range []szlike.Compressor{
		{Mode: szlike.PredictorAuto},
		{Mode: szlike.PredictorLorenzoOnly},
		{Mode: szlike.PredictorRegressionOnly},
	} {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			var size int
			for i := 0; i < b.N; i++ {
				data, err := c.CompressField(f, 1e-3)
				if err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.ReportMetric(float64(f.SizeBytes())/float64(size), "ratio")
		})
	}
}

// BenchmarkGaussianGenerate measures the circulant-embedding sampler.
func BenchmarkGaussianGenerate(b *testing.B) {
	s, err := gaussian.NewSampler(gaussian.Params{Rows: 256, Cols: 256, Range: 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariogramGlobal measures global range estimation.
func BenchmarkVariogramGlobal(b *testing.B) {
	src := stat.Source{F64: benchField(b, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variogram.GlobalRange(context.Background(), src, variogram.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalRangeStd measures the windowed variogram statistic.
func BenchmarkLocalRangeStd(b *testing.B) {
	src := stat.Source{F64: benchField(b, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variogram.LocalRangeStd(context.Background(), src, 32, variogram.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSVDStd measures the windowed SVD statistic.
func BenchmarkLocalSVDStd(b *testing.B) {
	src := stat.Source{F64: benchField(b, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svdstat.LocalStd(context.Background(), src, 32, svdstat.Options{Frac: 0.99}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- parallel scaling -------------------------------------------------------

// benchWorkerCounts are the pool sizes the scaling benchmarks sweep.
var benchWorkerCounts = []int{1, 2, 4, 8}

// bench512Field draws the 512×512 field the parallel-scaling
// benchmarks share (generation happens outside the timed region).
func bench512Field(b *testing.B) *field.Field {
	b.Helper()
	f, err := gaussian.Generate(gaussian.Params{Rows: 512, Cols: 512, Range: 32, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkLocalRangeStdParallel sweeps worker counts over the windowed
// variogram statistic on a 512×512 field. Per-window work is uniform
// and windows are independent, so throughput should scale near-linearly
// until the core count is exhausted.
func BenchmarkLocalRangeStdParallel(b *testing.B) {
	src := stat.Source{F64: bench512Field(b)}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var ref float64
			for i := 0; i < b.N; i++ {
				v, err := variogram.LocalRangeStd(context.Background(), src, 32, variogram.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if ref == 0 {
					ref = v
				} else if v != ref {
					b.Fatalf("nondeterministic result: %v vs %v", v, ref)
				}
			}
			b.ReportMetric(ref, "rangeStd")
		})
	}
}

// BenchmarkLocalSVDStdParallel sweeps worker counts over the windowed
// SVD statistic on a 512×512 field.
func BenchmarkLocalSVDStdParallel(b *testing.B) {
	src := stat.Source{F64: bench512Field(b)}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := svdstat.LocalStd(context.Background(), src, 32, svdstat.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeParallel sweeps worker counts over the full analysis
// (global range concurrent with both windowed statistics) on a 512×512
// field — the orchestration-layer speedup of core.AnalyzeFieldCtx.
func BenchmarkAnalyzeParallel(b *testing.B) {
	f := bench512Field(b)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeField pits the registry-driven kernel engine
// (core.AnalyzeFieldCtx: registry selection, Request.Opt maps, interface
// dispatch per kernel, keyed result assembly) against a hand-wired
// composition of the same three statistics through their direct
// package entry points. The engine/direct ns/op ratio is the
// indirection cost the kernel refactor is allowed to add: under 2%.
func BenchmarkAnalyzeField(b *testing.B) {
	f := bench512Field(b)
	w := runtime.NumCPU()
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{Workers: w}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		ctx, src := context.Background(), stat.Source{F64: f}
		vo := variogram.Options{Workers: w}
		so := svdstat.Options{Frac: svdstat.DefaultVarianceFraction, Workers: w}
		for i := 0; i < b.N; i++ {
			var errs [3]error
			parallel.For(len(errs), w, func(k int) {
				switch k {
				case 0:
					_, errs[k] = variogram.GlobalRange(ctx, src, vo)
				case 1:
					_, errs[k] = variogram.LocalRangeStd(ctx, src, core.DefaultWindow, vo)
				case 2:
					_, errs[k] = svdstat.LocalStd(ctx, src, core.DefaultWindow, so)
				}
			})
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMeasureFieldsParallel sweeps worker counts over the batch
// measurement pipeline (analysis + three codecs × one bound per field).
func BenchmarkMeasureFieldsParallel(b *testing.B) {
	var fields []*field.Field
	var labels []float64
	for i, rang := range []float64{8, 16, 32, 64} {
		f, err := gaussian.Generate(gaussian.Params{Rows: 256, Cols: 256, Range: rang, Seed: uint64(60 + i)})
		if err != nil {
			b.Fatal(err)
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MeasureFieldSet(b.Context(), "bench", fields, labels, MeasureOptions{
					ErrorBounds: []float64{1e-3},
					Workers:     w,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVariogramFFTMiranda runs the FFT variogram engine on a
// Miranda-shaped 256×384×384 volume — the paper-scale run the memory
// work exists for. Gated behind LOSSYCORR_MIRANDA=1: the transform
// working set (variogram.FFTPeakBytes) is ~1.6 GB beside the 300 MB
// field, far beyond a CI smoke budget.
func BenchmarkVariogramFFTMiranda(b *testing.B) {
	if os.Getenv("LOSSYCORR_MIRANDA") == "" {
		b.Skip("set LOSSYCORR_MIRANDA=1 to run the 256×384×384 benchmark (~1.6 GB)")
	}
	shape := []int{256, 384, 384}
	f := field.New(shape...)
	rng := xrand.New(21)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.ResetPeakBytes()
		if _, err := variogram.Compute(context.Background(), stat.Source{F64: f}, variogram.Options{FFT: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
	// Process-level confirmation of the transform-buffer numbers: the
	// Go runtime's OS-obtained memory after the paper-scale run.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "memSysMB")
}

// BenchmarkHydroStep measures one time step of the Euler solver at the
// Miranda-substitute resolution.
func BenchmarkHydroStep(b *testing.B) {
	s := hydro.NewKelvinHelmholtz(hydro.KHParams{Nx: 128, Ny: 128, Seed: 1})
	b.SetBytes(128 * 128 * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
