package variogram

import (
	"testing"

	"lossycorr/internal/gaussian"
)

// TestLocalRangesSerialParallelIdentical asserts the determinism
// contract: per-window ranges are bit-identical at any worker count.
func TestLocalRangesSerialParallelIdentical(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 21}))
	serial, err := LocalRanges(bg, f, 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := LocalRanges(bg, f, 16, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d ranges vs %d serial", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: range[%d] = %v != serial %v", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestLocalRangeStdSerialParallelIdentical(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 96, Cols: 96, Range: 12, Seed: 22}))
	serial, err := LocalRangeStd(bg, f, 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := LocalRangeStd(bg, f, 16, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Fatalf("LocalRangeStd not bit-identical: serial %v parallel %v", serial, par)
	}
}

// TestLocalRangesParallelStress repeats the parallel evaluation so the
// race detector sees many pool lifecycles over shared windows.
func TestLocalRangesParallelStress(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 6, Seed: 23}))
	ref, err := LocalRanges(bg, f, 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 8; it++ {
		got, err := LocalRanges(bg, f, 16, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("iteration %d: range[%d] drifted", it, i)
			}
		}
	}
}
