package lossycorr

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// ExampleAnalyzeField is the paper's workflow in three calls: generate
// a correlated field, extract its correlation statistics, and measure
// a codec's compression ratio on it.
func ExampleAnalyzeField() {
	ctx := context.Background()
	field, err := GenerateGaussian(GaussianParams{Rows: 256, Cols: 256, Range: 16, Seed: 7})
	if err != nil {
		panic(err)
	}
	stats, err := AnalyzeField(ctx, field, AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	res, err := MeasureField(ctx, "sz-like", field, 1e-3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("global range %.2f, sz-like ratio %.2f\n", stats.GlobalRange(), res.Ratio)
	// Output: global range 13.75, sz-like ratio 16.03
}

// TestQuickstart mirrors the README quickstart: generate, analyze,
// compress, predict.
func TestQuickstart(t *testing.T) {
	field, err := GenerateGaussian(GaussianParams{Rows: 64, Cols: 64, Range: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := AnalyzeField(t.Context(), field, AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GlobalRange() <= 0 {
		t.Fatalf("stats %+v", stats)
	}
	res, err := MeasureField(t.Context(), "sz-like", field, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK || res.Ratio <= 1 {
		t.Fatalf("result %+v", res)
	}
}

func TestMeasureRelative(t *testing.T) {
	field, err := GenerateGaussian(GaussianParams{Rows: 32, Cols: 32, Range: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureRelative(t.Context(), "zfp-like", field, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK {
		t.Fatalf("relative bound violated: %+v", res)
	}
	vr := field.Summary().ValueRange
	if math.Abs(res.ErrorBound-1e-3*vr) > 1e-15 {
		t.Fatalf("bound %v want %v", res.ErrorBound, 1e-3*vr)
	}
	if _, err := MeasureRelative(t.Context(), "nope", field, 1e-3); err == nil {
		t.Fatal("unknown compressor must error")
	}
}

func TestCompressorsRegistry(t *testing.T) {
	names := Compressors().NamesFor(2)
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	if _, err := MeasureField(t.Context(), "not-a-codec", NewField(4, 4), 1e-3); err == nil {
		t.Fatal("unknown compressor must error")
	}
	// mgard-like is the rank-2 codec (its volume form is mgard-like-3d):
	// a volume finds no codec of that name.
	if _, err := MeasureRelative(t.Context(), "mgard-like", NewField(4, 4, 4), 1e-3); err == nil {
		t.Fatal("rank-2 codec must not accept a volume")
	}
}

func TestFieldHelpers(t *testing.T) {
	g := &Field{Shape: []int{2, 2}, Data: []float64{1, 2, 3, 4}}
	if g.At(1, 1) != 4 {
		t.Fatal("Field literal does not index row-major")
	}
	if z := NewField(2, 3); z.Len() != 6 || z.At(1, 2) != 0 {
		t.Fatal("NewField broken")
	}
}

func TestMultiGaussianAndLocalStats(t *testing.T) {
	f, err := GenerateMultiGaussian(MultiGaussianParams{
		Rows: 64, Cols: 64, Ranges: []float64{2, 16}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := EstimateVariogramRange(t.Context(), f, VariogramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Range <= 0 {
		t.Fatalf("range %v", m.Range)
	}
	lrs, err := LocalVariogramRangeStd(t.Context(), f, 16, VariogramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svd, err := LocalSVDStd(t.Context(), f, 16, SVDOptions{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if lrs < 0 || svd < 0 {
		t.Fatalf("local stats %v %v", lrs, svd)
	}
}

func TestTurbulenceSlices(t *testing.T) {
	slices, times, err := TurbulenceSlices(32, 2, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 2 || len(times) != 2 {
		t.Fatalf("%d slices %d times", len(slices), len(times))
	}
}

func Test3DFacade(t *testing.T) {
	vol, err := GenerateGaussian3D(Gaussian3DParams{Nz: 16, Ny: 16, Nx: 16, Range: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := EstimateVariogramRange(t.Context(), vol, VariogramOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Range < 1 || m.Range > 9 {
		t.Fatalf("3D range %v far from 3", m.Range)
	}
	res, err := MeasureField(t.Context(), "sz-like-3d", vol, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio <= 1 {
		t.Fatalf("3D ratio %v", res.Ratio)
	}
	if !res.BoundOK || res.MaxAbsError > 1e-3*(1+1e-12) {
		t.Fatalf("3D bound violated: %v", res.MaxAbsError)
	}
}

func TestSamplingAndEntropyFacade(t *testing.T) {
	f, err := GenerateGaussian(GaussianParams{Rows: 96, Cols: 96, Range: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	h, err := QuantizedEntropy(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 || EstimateEntropyRatio(h) <= 1 {
		t.Fatalf("entropy %v ratio %v", h, EstimateEntropyRatio(h))
	}
	if _, err := SampledLocalRangeStd(t.Context(), f, 32, SamplingOptions{Fraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := SampledLocalSVDStd(t.Context(), f, 32, 0.99, SamplingOptions{Fraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	points, err := SweepSamplingFractions(t.Context(), f, 32, "range", []float64{0.5, 1}, SamplingOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[1].RelError > 1e-9 {
		t.Fatalf("sweep %+v", points)
	}
}

func TestFitLogFacade(t *testing.T) {
	fit, err := FitLog([]float64{1, math.E, math.E * math.E}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-1) > 1e-9 || math.Abs(fit.Alpha-1) > 1e-9 {
		t.Fatalf("fit %+v", fit)
	}
}

func TestMeasureFieldsAndPredictorFacade(t *testing.T) {
	var fields []*Field
	var labels []float64
	for i, rang := range []float64{4, 10, 24} {
		f, err := GenerateGaussian(GaussianParams{Rows: 64, Cols: 64, Range: rang, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	ms, err := MeasureFieldSet(t.Context(), "facade", fields, labels, MeasureOptions{
		Analysis:    AnalysisOptions{SkipLocal: true},
		ErrorBounds: []float64{1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	series := BuildSeries(ms, XGlobalRange, YRatio)
	if len(series) != 3 {
		t.Fatalf("series count %d", len(series))
	}
	// sz-like CR must increase with range: positive β
	for _, s := range series {
		if s.Compressor == "sz-like" {
			if !s.FitOK || s.Fit.Beta <= 0 {
				t.Fatalf("sz-like fit %+v", s.Fit)
			}
		}
	}
	p, err := TrainPredictor(ms, XGlobalRange, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.SelectCompressor(1e-3, ms[2].Stats)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Compressor == "" || sel.Predicted <= 0 {
		t.Fatalf("selection %+v", sel)
	}
}

func TestSuiteFacade(t *testing.T) {
	s := NewSuite(FigureConfig{Size: 64, Replicates: 1, MirandaSlices: 2, ErrorBounds: []float64{1e-3}})
	// Figure 1's true range is a sixteenth of the configured size.
	var out strings.Builder
	if err := s.Figure1(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "true range=4.00 ") {
		t.Fatalf("figure 1 of a size-64 suite:\n%s", out.String())
	}
}
