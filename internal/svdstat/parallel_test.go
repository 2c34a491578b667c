package svdstat

import (
	"testing"

	"lossycorr/internal/gaussian"
)

// TestLocalLevelsSerialParallelIdentical asserts the determinism
// contract: per-window truncation levels are bit-identical at any
// worker count, in tile order.
func TestLocalLevelsSerialParallelIdentical(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 31}))
	serial, err := LocalLevels(bg, f, 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := LocalLevels(bg, f, 16, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d levels vs %d serial", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: level[%d] = %v != serial %v", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestLocalStdSerialParallelIdentical(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 96, Cols: 96, Range: 12, Seed: 32}))
	serial, err := LocalStd(bg, f, 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := LocalStd(bg, f, 16, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Fatalf("LocalStd not bit-identical: serial %v parallel %v", serial, par)
	}
}

func TestLocalStdWithDefaultsMatchLocalStd(t *testing.T) {
	f := in64(gaussField(t, gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 33}))
	a, err := LocalStd(bg, f, 32, Options{Frac: DefaultVarianceFraction})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LocalStd(bg, f, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("LocalStd zero options %v != explicit default fraction %v", b, a)
	}
}
