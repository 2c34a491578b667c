package core

import (
	"context"
	"math"
	"testing"

	"lossycorr/internal/compress"
)

func syntheticMeasurements() []Measurement {
	// compressor "fast" has CR = 1 + 2·ln(x); "tight" has CR = 3 + ln(x):
	// fast wins for x > e², tight wins below
	var ms []Measurement
	for _, x := range []float64{2, 4, 8, 16, 32, 64} {
		ms = append(ms, Measurement{
			Stats: Statistics{StatGlobalRange: x},
			Results: []compress.Result{
				{Compressor: "fast", ErrorBound: 1e-3, Ratio: 1 + 2*math.Log(x)},
				{Compressor: "tight", ErrorBound: 1e-3, Ratio: 3 + math.Log(x)},
			},
		})
	}
	return ms
}

func TestTrainPredictorAndPredict(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Models()) != 2 {
		t.Fatalf("models %v", p.Models())
	}
	got, err := p.PredictRatio("fast", 1e-3, Statistics{StatGlobalRange: math.E})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("predicted %v want 3", got)
	}
}

func TestPredictRatioErrors(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictRatio("nope", 1e-3, Statistics{StatGlobalRange: 2}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := p.PredictRatio("fast", 1e-9, Statistics{StatGlobalRange: 2}); err == nil {
		t.Fatal("unknown bound must error")
	}
	if _, err := p.PredictRatio("fast", 1e-3, Statistics{StatGlobalRange: 0}); err == nil {
		t.Fatal("non-positive statistic must error")
	}
}

func TestSelectCompressorCrossover(t *testing.T) {
	p, err := TrainPredictor(syntheticMeasurements(), XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	// below the e² crossover "tight" wins, above it "fast" wins
	low, err := p.SelectCompressor(1e-3, Statistics{StatGlobalRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	if low.Compressor != "tight" {
		t.Fatalf("low selection %+v", low)
	}
	high, err := p.SelectCompressor(1e-3, Statistics{StatGlobalRange: 50})
	if err != nil {
		t.Fatal(err)
	}
	if high.Compressor != "fast" {
		t.Fatalf("high selection %+v", high)
	}
	if _, err := p.SelectCompressor(42, Statistics{StatGlobalRange: 2}); err == nil {
		t.Fatal("unknown bound must error")
	}
}

func TestTrainPredictorNoData(t *testing.T) {
	if _, err := TrainPredictor(nil, XGlobalRange); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestPredictFieldEndToEnd(t *testing.T) {
	// train log-regression models on four real fields, then predict an
	// unseen field's ratio and compare with the measured truth
	var train []Measurement
	for i, rang := range []float64{4, 8, 16, 32} {
		g := smallField(t, rang, uint64(30+i))
		m, err := measureOne(context.Background(), "train", i, g, nil, DefaultRegistry(),
			[]float64{1e-3}, AnalysisOptions{SkipLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, m)
	}
	p, err := TrainPredictor(train, XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	f := smallField(t, 12, 20)
	stats, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{SkipLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.PredictRatio("sz-like", 1e-3, stats)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DefaultRegistry().GetFor("sz-like", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress.RunField(c, f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// prediction should land within a factor of 2 of the truth
	if pred < res.Ratio/2 || pred > res.Ratio*2 {
		t.Fatalf("predicted %v, actual %v", pred, res.Ratio)
	}
}
