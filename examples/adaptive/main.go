// Adaptive compressor selection: the forward application the paper
// motivates. Train CR = α + β·log(range) models on a sweep of synthetic
// fields, then — for unseen fields — estimate the variogram range,
// predict each compressor's ratio, pick the winner, and verify against
// the measured truth.
package main

import (
	"context"
	"fmt"
	"log"

	"lossycorr"
)

func main() {
	ctx := context.Background()
	const size = 128
	const eb = 1e-3

	// training sweep: one field per range
	var fields []*lossycorr.Field
	var labels []float64
	for i, rang := range []float64{2, 4, 8, 12, 16, 24} {
		f, err := lossycorr.GenerateGaussian(lossycorr.GaussianParams{
			Rows: size, Cols: size, Range: rang, Seed: uint64(100 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	ms, err := lossycorr.MeasureFieldSet(ctx, "train", fields, labels, lossycorr.MeasureOptions{
		Analysis:    lossycorr.AnalysisOptions{SkipLocal: true},
		ErrorBounds: []float64{eb},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fitted models (CR = α + β·ln(range)):")
	for _, s := range lossycorr.BuildSeries(ms, lossycorr.XGlobalRange, lossycorr.YRatio) {
		fmt.Printf("  %-11s %s\n", s.Compressor, s.Fit)
	}

	predictor, err := lossycorr.TrainPredictor(ms, lossycorr.XGlobalRange, lossycorr.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// unseen fields with different smoothness
	fmt.Println("\nselection on unseen fields:")
	for i, rang := range []float64{3, 10, 30} {
		f, err := lossycorr.GenerateGaussian(lossycorr.GaussianParams{
			Rows: size, Cols: size, Range: rang, Seed: uint64(900 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := lossycorr.AnalyzeField(ctx, f, lossycorr.AnalysisOptions{SkipLocal: true})
		if err != nil {
			log.Fatal(err)
		}
		sel, err := predictor.SelectCompressor(eb, stats)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := lossycorr.MeasureField(ctx, sel.Compressor, f, eb)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  range≈%5.2f → %-11s predicted CR %6.2f, measured CR %6.2f\n",
			stats.GlobalRange(), sel.Compressor, sel.Predicted, actual.Ratio)
	}
}
