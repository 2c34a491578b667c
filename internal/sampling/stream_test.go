package sampling

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

func tempReader(t *testing.T, g *field.Field) *field.TileReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.lcf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSampledReaderBitIdentity pins the streamed sampled estimators
// against the in-RAM ones bit for bit: identical window selection,
// evaluation order, and per-window solves, across fractions, seeds,
// budgets, and worker counts.
func TestSampledReaderBitIdentity(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(600)
	g := field.New(61, 53)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	tr := tempReader(t, g)
	ram := stat.Source{F64: g}
	const h = 8
	winBytes := int64(8 * h * h)
	for _, frac := range []float64{0.1, 0.5, 1} {
		for _, seed := range []uint64{1, 77} {
			opts := Options{Fraction: frac, Seed: seed}
			wantR, err := LocalRangeStd(ctx, ram, h, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantS, err := LocalSVDStd(ctx, ram, h, 0.99, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{2 * winBytes, 0} {
				src := stat.Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: budget}}
				for _, workers := range []int{1, 3} {
					o := Options{Fraction: frac, Seed: seed, Workers: workers}
					gotR, err := LocalRangeStd(ctx, src, h, o)
					if err != nil {
						t.Fatal(err)
					}
					if gotR != wantR {
						t.Fatalf("frac %v seed %d budget %d workers %d: range std %v, want %v",
							frac, seed, budget, workers, gotR, wantR)
					}
					gotS, err := LocalSVDStd(ctx, src, h, 0.99, o)
					if err != nil {
						t.Fatal(err)
					}
					if gotS != wantS {
						t.Fatalf("frac %v seed %d budget %d workers %d: svd std %v, want %v",
							frac, seed, budget, workers, gotS, wantS)
					}
				}
			}
		}
	}
}
