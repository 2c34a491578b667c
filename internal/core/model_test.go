package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
)

// TestSelectCompressorNonPositiveStat pins the bugfix: a non-positive
// statistic used to fall through the per-model continue and be
// misreported as "no models at eb", hiding the real cause.
func TestSelectCompressorNonPositiveStat(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.SelectCompressor(1e-3, Statistics{StatGlobalRange: 0})
	if err == nil {
		t.Fatal("non-positive statistic must error")
	}
	if !strings.Contains(err.Error(), "non-positive") {
		t.Fatalf("error %q should name the non-positive statistic", err)
	}
	if strings.Contains(err.Error(), "no models") {
		t.Fatalf("error %q misattributes the failure to missing models", err)
	}
	// A genuinely unknown bound still reports missing models.
	_, err = p.SelectCompressor(42, Statistics{StatGlobalRange: 5})
	if err == nil || !strings.Contains(err.Error(), "no models") {
		t.Fatalf("unknown bound error %v", err)
	}
}

// TestModelsCloseBounds pins the %g fix: two trained bounds only 1.4×
// apart must stay distinguishable in the listing (%.0e rendered both
// 1e-3 and 1.4e-3 as "1e-03").
func TestModelsCloseBounds(t *testing.T) {
	var ms []Measurement
	for _, x := range []float64{2, 4, 8, 16} {
		ms = append(ms, Measurement{
			Stats: Statistics{StatGlobalRange: x},
			Results: []compress.Result{
				{Compressor: "fast", ErrorBound: 1e-3, Ratio: 1 + 2*math.Log(x)},
				{Compressor: "fast", ErrorBound: 1.4e-3, Ratio: 2 + 2*math.Log(x)},
			},
		})
	}
	p, err := TrainPredictor(ms, XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	models := p.Models()
	if len(models) != 2 {
		t.Fatalf("models %v, want two entries", models)
	}
	if models[0] == models[1] {
		t.Fatalf("close bounds collapsed to one display string: %v", models)
	}
	want := []string{"fast@0.001", "fast@0.0014"}
	if !reflect.DeepEqual(models, want) {
		t.Fatalf("models %v want %v", models, want)
	}
}

func TestTrainPredictorZeroFittableSeries(t *testing.T) {
	// Every x is non-positive, so the log-model filter leaves < 2 points
	// in every series and no fit succeeds.
	var ms []Measurement
	for i := 0; i < 4; i++ {
		ms = append(ms, Measurement{
			Stats:   Statistics{StatGlobalRange: -1},
			Results: []compress.Result{{Compressor: "fast", ErrorBound: 1e-3, Ratio: 2}},
		})
	}
	if _, err := TrainPredictor(ms, XGlobalRange); err == nil {
		t.Fatal("zero fittable series must error")
	}
}

func TestTrainPredictorCVDiagnostics(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := p.CV("fast", 1e-3)
	if !ok {
		t.Fatal("default training must attach CV diagnostics")
	}
	if cv.Folds != 5 || cv.N != 6 {
		t.Fatalf("cv %+v, want 5 folds over 6 points", cv)
	}
	// The synthetic series is exactly log-linear, so out-of-sample R²
	// must be essentially perfect.
	if cv.R2 < 0.999 {
		t.Fatalf("out-of-sample R²=%v on noiseless data", cv.R2)
	}
	// Negative folds disable CV.
	p2, err := TrainPredictorOpts(syntheticMeasurements(), XGlobalRange, TrainOptions{Folds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.CV("fast", 1e-3); ok {
		t.Fatal("Folds<0 must disable CV")
	}
}

func TestPredictRatioInterval(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.PredictRatioInterval("fast", 1e-3, Statistics{StatGlobalRange: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Level != DefaultIntervalLevel {
		t.Fatalf("level %v want default %v", pred.Level, DefaultIntervalLevel)
	}
	if !(pred.Lo <= pred.Ratio && pred.Ratio <= pred.Hi) {
		t.Fatalf("interval [%v, %v] does not bracket %v", pred.Lo, pred.Hi, pred.Ratio)
	}
	point, err := p.PredictRatio("fast", 1e-3, Statistics{StatGlobalRange: 10})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ratio != point {
		t.Fatalf("interval point %v diverges from PredictRatio %v", pred.Ratio, point)
	}
	if _, err := p.PredictRatioInterval("nope", 1e-3, Statistics{StatGlobalRange: 10}, 0); err == nil {
		t.Fatal("unknown compressor must error")
	}
	if _, err := p.PredictRatioInterval("fast", 7, Statistics{StatGlobalRange: 10}, 0); err == nil {
		t.Fatal("unknown bound must error")
	}
	if _, err := p.PredictRatioInterval("fast", 1e-3, Statistics{}, 0); err == nil {
		t.Fatal("non-positive statistic must error")
	}
}

// TestSaveLoadBitEquality checks the persistence round trip: a reloaded
// predictor produces bit-identical point predictions (encoding/json
// round-trips float64 exactly), its CV diagnostics survive, and saving
// twice is byte-stable.
func TestSaveLoadBitEquality(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePredictor(&buf, p); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	q, err := LoadPredictor(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if q.Selector() != p.Selector() {
		t.Fatalf("selector %v want %v", q.Selector(), p.Selector())
	}
	if !reflect.DeepEqual(q.Models(), p.Models()) {
		t.Fatalf("models %v want %v", q.Models(), p.Models())
	}
	for _, comp := range []string{"fast", "tight"} {
		for _, x := range []float64{1.5, math.E, 7.25, 33.3, 1e4} {
			st := Statistics{StatGlobalRange: x}
			want, err := p.PredictRatio(comp, 1e-3, st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.PredictRatio(comp, 1e-3, st)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s x=%v: reloaded %v != original %v (bit-exactness broken)", comp, x, got, want)
			}
			wp, err := p.PredictRatioInterval(comp, 1e-3, st, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := q.PredictRatioInterval(comp, 1e-3, st, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if gp != wp {
				t.Fatalf("%s x=%v: reloaded interval %+v != original %+v", comp, x, gp, wp)
			}
		}
	}
	cvP, okP := p.CV("fast", 1e-3)
	cvQ, okQ := q.CV("fast", 1e-3)
	if !okP || !okQ || !reflect.DeepEqual(cvP, cvQ) {
		t.Fatalf("CV diagnostics lost in round trip: %+v vs %+v", cvP, cvQ)
	}
	if q.Provenance().Source != "file" {
		t.Fatalf("loaded provenance source %q want \"file\"", q.Provenance().Source)
	}
	if q.Provenance().Measurements != len(syntheticMeasurements()) {
		t.Fatalf("provenance measurements %d", q.Provenance().Measurements)
	}
	// Re-saving the loaded predictor is byte-stable apart from the
	// provenance source rewrite.
	q.SetProvenance(p.Provenance())
	var buf2 bytes.Buffer
	if err := SavePredictor(&buf2, q); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("re-save not byte-identical:\n%s\nvs\n%s", buf2.String(), first)
	}
}

func TestLoadPredictorRejectsBadFiles(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePredictor(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// Forward-compat: a future schema version must be rejected, not
	// half-interpreted.
	v2 := strings.Replace(good, "lossycorr-model/v1", "lossycorr-model/v2", 1)
	if _, err := LoadPredictor(strings.NewReader(v2)); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema version accepted: %v", err)
	}
	// Unknown selector name.
	badSel := strings.Replace(good, "global-range", "quantum-flux", 1)
	if _, err := LoadPredictor(strings.NewReader(badSel)); err == nil ||
		!strings.Contains(err.Error(), "selector") {
		t.Fatalf("unknown selector accepted: %v", err)
	}
	// Not JSON at all.
	if _, err := LoadPredictor(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage input accepted")
	}
	// Empty model list.
	if _, err := LoadPredictor(strings.NewReader(
		`{"schema":"lossycorr-model/v1","selector":"global-range","models":[]}`)); err == nil {
		t.Fatal("empty model list accepted")
	}
	// Non-positive error bound.
	if _, err := LoadPredictor(strings.NewReader(
		`{"schema":"lossycorr-model/v1","selector":"global-range","models":[{"compressor":"a","errorBound":0,"fit":{}}]}`)); err == nil {
		t.Fatal("non-positive bound accepted")
	}
}

func TestParseStatSelectorRoundTrip(t *testing.T) {
	for _, sel := range []StatSelector{XGlobalRange, XLocalRangeStd, XLocalSVDStd} {
		got, err := ParseStatSelector(sel.Key())
		if err != nil {
			t.Fatal(err)
		}
		if got != sel {
			t.Fatalf("round trip %v -> %q -> %v", sel, sel.Key(), got)
		}
		// WithValue must invert Value for the selected statistic.
		if v := sel.Value(sel.WithValue(3.25)); v != 3.25 {
			t.Fatalf("WithValue round trip %v: got %v", sel, v)
		}
	}
	if _, err := ParseStatSelector("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestCVDeterministicAcrossWorkers checks the acceptance criterion:
// k-fold diagnostics depend only on (series, folds, seed), and the
// measurement pipeline is bit-identical at any worker count, so the CV
// numbers attached to a trained predictor must match exactly whether
// measurement ran serial or parallel.
func TestCVDeterministicAcrossWorkers(t *testing.T) {
	train := func(workers int) *Predictor {
		var fields []*field.Field
		for i, rang := range []float64{3, 5, 8, 12, 20, 32} {
			g := smallField(t, rang, uint64(40+i))
			fields = append(fields, g)
		}
		ms, err := MeasureFieldSetCtx(bg, "cvdet", fields, nil, DefaultRegistry(), MeasureOptions{
			Analysis:    AnalysisOptions{SkipLocal: true},
			ErrorBounds: []float64{1e-3},
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := TrainPredictorOpts(ms, XGlobalRange, TrainOptions{Folds: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial, parallel := train(1), train(4)
	if !reflect.DeepEqual(serial.Models(), parallel.Models()) {
		t.Fatalf("model sets differ: %v vs %v", serial.Models(), parallel.Models())
	}
	for _, eb := range serial.ErrorBounds() {
		for _, name := range []string{"sz-like", "zfp-like", "mgard-like"} {
			cvS, okS := serial.CV(name, eb)
			cvP, okP := parallel.CV(name, eb)
			if okS != okP {
				t.Fatalf("%s@%g CV presence differs (%v vs %v)", name, eb, okS, okP)
			}
			if okS && !reflect.DeepEqual(cvS, cvP) {
				t.Fatalf("%s@%g CV differs across worker counts:\n%+v\n%+v", name, eb, cvS, cvP)
			}
		}
	}
}
