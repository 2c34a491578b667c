// Multi-range fields: demonstrates the paper's Section V-B finding that
// the *global* variogram range is a poor explanatory statistic for
// fields mixing several correlation scales, while the *local* statistics
// (std of windowed variogram ranges) separate them much better.
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

	// pairs with (roughly) constant geometric mean but growing spread:
	// the global variogram range barely separates them, while the local
	// statistics track the mixture — the paper's Section V-B point.
	pairs := [][2]float64{{8, 8}, {7, 9}, {6, 11}, {5, 13}, {4, 16}, {3, 21}, {2, 32}, {1.5, 43}}
	var fields []*lossycorr.Field
	for i, p := range pairs {
		f, err := lossycorr.GenerateMultiGaussian(lossycorr.MultiGaussianParams{
			Rows: size, Cols: size, Ranges: p[:], Seed: uint64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		fields = append(fields, f)
	}
	ms, err := lossycorr.MeasureFieldSet(ctx, "multi", fields, nil, lossycorr.MeasureOptions{
		ErrorBounds: []float64{eb},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("multi-range Gaussian fields at eb=1e-3:")
	fmt.Printf("%10s %12s %12s %12s\n", "ranges", "globRange", "locRngStd", "sz-like CR")
	for i, m := range ms {
		var szCR float64
		for _, r := range m.Results {
			if r.Compressor == "sz-like" {
				szCR = r.Ratio
			}
		}
		fmt.Printf("%4g+%-5g %12.3f %12.3f %12.2f\n",
			pairs[i][0], pairs[i][1], m.Stats.GlobalRange(), m.Stats.LocalRangeStd(), szCR)
	}

	fmt.Println("\nexplanatory power of each statistic (R² of CR = α + β·log x):")
	for _, sel := range []lossycorr.StatSelector{lossycorr.XGlobalRange, lossycorr.XLocalRangeStd} {
		for _, s := range lossycorr.BuildSeries(ms, sel) {
			if s.Compressor != "sz-like" || !s.FitOK {
				continue
			}
			fmt.Printf("  %-55s R²=%.3f\n", sel, s.Fit.R2)
		}
	}
}
