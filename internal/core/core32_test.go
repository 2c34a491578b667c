package core

import (
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/variogram"
)

// laneField returns a Gaussian field in both lanes: the float32 field
// and its exact float64 widening, so the two pipelines see
// exactly-corresponding values.
func laneField(t *testing.T, rang float64, seed uint64) (*field.Field32, *field.Field) {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	f32 := g.Narrow()
	return f32, f32.Widen()
}

// TestAnalyzeField32MatchesOracle pins the lane-equivalence contract:
// with the direct (non-FFT) scan the float32 statistics are bitwise
// identical to the float64 pipeline over the widened field — the
// windowed statistics widen per window, and the direct scans
// accumulate in float64 either way.
func TestAnalyzeField32MatchesOracle(t *testing.T) {
	f32, f64 := laneField(t, 12, 5)
	opts := AnalysisOptions{VariogramOpts: variogram.Options{Exact: true}, Workers: 3}
	ex, err := AnalyzeFieldCtx(bg, f64, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeFieldCtx(bg, f32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ex) {
		t.Fatalf("float32 lane stats diverge:\n got %+v\nwant %+v", got, ex)
	}
}

// TestAnalyzeField32FFT pins the FFT engine lane: pair counts are
// exact, so the fitted range tracks the oracle within float32
// transform tolerance.
func TestAnalyzeField32FFT(t *testing.T) {
	f32, f64 := laneField(t, 10, 9)
	ex, err := AnalyzeFieldCtx(bg, f64, AnalysisOptions{VariogramFFT: true, SkipLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeFieldCtx(bg, f32, AnalysisOptions{VariogramFFT: true, SkipLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.GlobalRange()-ex.GlobalRange()) / ex.GlobalRange(); rel > 1e-3 {
		t.Fatalf("FFT lane range %v vs oracle %v (rel %g)", got.GlobalRange(), ex.GlobalRange(), rel)
	}
}

// TestMeasureFieldSet32EndToEnd runs the full measurement sweep on the
// float32 lane: every codec of the registry, through its native float32
// lane, must hold its bound on float32 values at every paper error
// bound.
func TestMeasureFieldSet32EndToEnd(t *testing.T) {
	f32, _ := laneField(t, 16, 11)
	ms, err := MeasureFieldSetCtx(bg, "lane32", []*field.Field32{f32}, []float64{16},
		DefaultRegistry(), MeasureOptions{
			Analysis:    AnalysisOptions{VariogramOpts: variogram.Options{Exact: true}},
			ErrorBounds: []float64{1e-2, 1e-4},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d measurements", len(ms))
	}
	if len(ms[0].Results) != 3*2 {
		t.Fatalf("got %d results, want 6", len(ms[0].Results))
	}
	for _, r := range ms[0].Results {
		if !r.BoundOK {
			t.Fatalf("%s violated bound %g: max err %g", r.Compressor, r.ErrorBound, r.MaxAbsError)
		}
		if r.OriginalSize != 64*64*4 {
			t.Fatalf("%s: original size %d, want float32 bytes %d", r.Compressor, r.OriginalSize, 64*64*4)
		}
	}
}

// TestPredictField32 pins the forward application on the compute lane:
// a predictor trained on float64 measurements predicts from float32
// statistics, and with the direct scan the prediction is bitwise the
// float64 prediction.
func TestPredictField32(t *testing.T) {
	var fields []*field.Field
	var f32s []*field.Field32
	labels := []float64{4, 10, 18}
	for i, rng := range labels {
		f32, f64 := laneField(t, rng, uint64(20+i))
		fields = append(fields, f64)
		f32s = append(f32s, f32)
	}
	opts := MeasureOptions{
		Analysis:    AnalysisOptions{VariogramOpts: variogram.Options{Exact: true}},
		ErrorBounds: []float64{1e-3},
	}
	ms, err := MeasureFieldSetCtx(bg, "train", fields, labels, DefaultRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := TrainPredictor(ms, XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	exStats, err := AnalyzeFieldCtx(bg, fields[0], opts.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.PredictRatio("sz-like", 1e-3, exStats)
	if err != nil {
		t.Fatal(err)
	}
	gotStats, err := AnalyzeFieldCtx(bg, f32s[0], opts.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictRatio("sz-like", 1e-3, gotStats)
	if err != nil {
		t.Fatal(err)
	}
	if got != ex {
		t.Fatalf("float32 lane prediction %v != oracle %v", got, ex)
	}
}
