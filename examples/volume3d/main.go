// 3D analysis on the unified pipeline: volumes flow through the same
// field abstraction, statistics, codec registry, and predictor as 2D
// grids. Generate 3D Gaussian volumes with known correlation ranges,
// extract all three correlation statistics (H×H×H windows), sweep the
// registered 3D codecs, train a predictor on volumes, and compare the
// volumetric view against the paper's per-slice 2D analysis.
package main

import (
	"context"
	"fmt"
	"log"

	"lossycorr"
)

func main() {
	ctx := context.Background()
	const n = 32
	const h = 16 // local window edge (H×H×H)
	const eb = 1e-3

	var fields []*lossycorr.Field
	var labels []float64
	fmt.Printf("%10s %12s %12s %12s %12s %14s\n",
		"trueRange", "est3DRange", "locRngStd", "locSVDStd", "szCR", "slice2DRange")
	for i, rang := range []float64{1.5, 3, 6, 10} {
		f, err := lossycorr.GenerateGaussian3D(lossycorr.Gaussian3DParams{
			Nz: n, Ny: n, Nx: n, Range: rang, Seed: uint64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}

		// the full statistics vector of the volume, one AnalyzeField call
		stats, err := lossycorr.AnalyzeField(ctx, f, lossycorr.AnalysisOptions{Window: h})
		if err != nil {
			log.Fatal(err)
		}
		res, err := lossycorr.MeasureField(ctx, "sz-like-3d", f, eb)
		if err != nil {
			log.Fatal(err)
		}

		// the paper's per-slice 2D view of the same volume: the mid-z
		// slice, a rank-2 view over the volume's data
		mid := &lossycorr.Field{Shape: []int{n, n}, Data: f.Data[n/2*n*n : (n/2+1)*n*n]}
		m2, err := lossycorr.EstimateVariogramRange(ctx, mid, lossycorr.VariogramOptions{Exact: true})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%10.1f %12.3f %12.3f %12.3f %12.2f %14.3f\n",
			rang, stats.GlobalRange(), stats.LocalRangeStd(), stats.LocalSVDStd(),
			res.Ratio, m2.Range)
		fields = append(fields, f)
		labels = append(labels, rang)
	}

	// the forward application on volumes: train CR models, pick a codec
	ms, err := lossycorr.MeasureFieldSet(ctx, "vols", fields, labels, lossycorr.MeasureOptions{
		Analysis:    lossycorr.AnalysisOptions{SkipLocal: true},
		ErrorBounds: []float64{eb},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := lossycorr.TrainPredictor(ms, lossycorr.XGlobalRange, lossycorr.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	probe, err := lossycorr.GenerateGaussian3D(lossycorr.Gaussian3DParams{
		Nz: n, Ny: n, Nx: n, Range: 4, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := lossycorr.AnalyzeField(ctx, probe, lossycorr.AnalysisOptions{SkipLocal: true})
	if err != nil {
		log.Fatal(err)
	}
	sel, err := p.SelectCompressor(eb, stats)
	if err != nil {
		log.Fatal(err)
	}
	actual, err := lossycorr.MeasureField(ctx, sel.Compressor, probe, eb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunseen volume (range 4): selected %s, predicted CR %.2f, actual %.2f\n",
		sel.Compressor, sel.Predicted, actual.Ratio)
	fmt.Println("3D and per-slice 2D ranges agree, ratios grow with range, and the")
	fmt.Println("predictor picks a 3D codec — the 2D findings carry to 3D unchanged.")
}
