package sampling

import (
	"testing"
)

// TestSampledStatsSerialParallelIdentical asserts the determinism
// contract for the sampled estimators: the sampled window set depends
// only on the seed, and parallel evaluation keeps sampling order, so
// results are bit-identical at any worker count.
func TestSampledStatsSerialParallelIdentical(t *testing.T) {
	f := heterogeneousField(t)
	for _, frac := range []float64{0.5, 1} {
		serialRange, err := LocalRangeStd(bg, f, 32, Options{Fraction: frac, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		serialSVD, err := LocalSVDStd(bg, f, 32, 0.99, Options{Fraction: frac, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			parRange, err := LocalRangeStd(bg, f, 32, Options{Fraction: frac, Seed: 9, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if parRange != serialRange {
				t.Fatalf("frac=%v workers=%d: range std %v != serial %v", frac, workers, parRange, serialRange)
			}
			parSVD, err := LocalSVDStd(bg, f, 32, 0.99, Options{Fraction: frac, Seed: 9, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if parSVD != serialSVD {
				t.Fatalf("frac=%v workers=%d: svd std %v != serial %v", frac, workers, parSVD, serialSVD)
			}
		}
	}
}

func TestSweepFractionsSerialParallelIdentical(t *testing.T) {
	f := heterogeneousField(t)
	serial, err := SweepFractions(bg, f, 32, "range", []float64{0.25, 1}, Options{Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepFractions(bg, f, 32, "range", []float64{0.25, 1}, Options{Seed: 17, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("sweep point %d differs: serial %+v parallel %+v", i, serial[i], par[i])
		}
	}
}
