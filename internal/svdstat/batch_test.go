package svdstat

import (
	"errors"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/linalg"
	"lossycorr/internal/xrand"
)

// batchCorpus is a mix of the windows the statistic meets: 32² windows
// of a correlated field (the analyze workload's), 32² noise windows,
// mode-1 unfoldings of 12³ windows (the 3D workload's), 32×20 and 5×32
// windows clipped at a field's edge, a constant window, and a 1×32
// window clipped below 2, which is skipped.
func batchCorpus(t *testing.T) []*field.Field {
	t.Helper()
	g := gaussField(t, gaussian.Params{Rows: 128, Cols: 128, Range: 12, Seed: 3})
	var ws []*field.Field
	for r := 0; r < 128; r += 32 {
		for c := 0; c < 128; c += 32 {
			ws = append(ws, g.Window([]int{r, c}, 32))
		}
	}
	rng := xrand.New(5)
	noise := func(shape ...int) *field.Field {
		w := field.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		return w
	}
	v := noise(24, 24, 24)
	for _, o := range [][]int{{0, 0, 0}, {12, 0, 12}, {0, 12, 0}, {12, 12, 12}} {
		ws = append(ws, v.Window(o, 12))
	}
	for range 8 {
		ws = append(ws, noise(32, 32), noise(32, 20), noise(5, 32))
	}
	constant := field.New(16, 16)
	for i := range constant.Data {
		constant.Data[i] = 2.5
	}
	return append(ws, constant, noise(1, 32))
}

// alone is each window's eigenvalues and level solved as a batch of one.
func alone(t *testing.T, ws []*field.Field) (eigs [][]float64, levels []float64) {
	t.Helper()
	for _, w := range ws {
		var vals [1]float64
		var keep [1]bool
		if err := windowLevels([]*field.Field{w}, vals[:], keep[:], DefaultVarianceFraction); err != nil {
			t.Fatal(err)
		}
		var eig []float64
		if keep[0] {
			ps, err := new(levelScratch).solve([]*field.Field{w}, keep[:])
			if err != nil {
				t.Fatal(err)
			}
			eig = ps[0].D
		}
		eigs, levels = append(eigs, eig), append(levels, vals[0])
	}
	return eigs, levels
}

// TestWindowLevelsBatchMatchesAlone pins the stat contract that a
// window's value depends on that window alone: at every batch width
// 1–8, with the corpus shuffled so that each window meets other
// companions of other shapes, every window's eigenvalue bits and level
// equal those it gets as a batch of one.
func TestWindowLevelsBatchMatchesAlone(t *testing.T) {
	ws := batchCorpus(t)
	wantEig, wantLevel := alone(t, ws)
	rng := xrand.New(11)
	sc := new(levelScratch) // reused across batches, as a pooled one is
	for width := 1; width <= 8; width++ {
		perm := rng.Perm(len(ws))
		for lo := 0; lo < len(perm); lo += width {
			idx := perm[lo:min(lo+width, len(perm))]
			batch := make([]*field.Field, len(idx))
			for i, j := range idx {
				batch[i] = ws[j]
			}
			vals := make([]float64, len(batch))
			keep := make([]bool, len(batch))
			if err := windowLevels(batch, vals, keep, DefaultVarianceFraction); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			ps, err := sc.solve(batch, keep)
			if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			for i, j := range idx {
				if keep[i] != (wantEig[j] != nil) || vals[i] != wantLevel[j] {
					t.Fatalf("width %d, window %d (%v): level %v keep %v, alone %v",
						width, j, ws[j].Shape, vals[i], keep[i], wantLevel[j])
				}
				if !keep[i] {
					continue
				}
				got := ps[0].D
				ps = ps[1:]
				for k, e := range wantEig[j] {
					if math.Float64bits(got[k]) != math.Float64bits(e) {
						t.Fatalf("width %d, window %d (%v): λ[%d] = %v, alone %v",
							width, j, ws[j].Shape, k, got[k], e)
					}
				}
			}
		}
	}
}

// TestWindowLevelsMixedShapes runs one batch of every shape the sweep
// hands the kernel side by side: a 32² window, clipped 32×20 and 5×32
// edge windows, a 12×144 unfolding of a 12³ window beside a plain
// 12×144 window, a constant window (level 0) and a 1×32 window, which
// is skipped.
func TestWindowLevelsMixedShapes(t *testing.T) {
	ws := batchCorpus(t)
	pick := []*field.Field{ws[0], ws[21], ws[22], ws[16], ws[len(ws)-2], ws[len(ws)-1]}
	rng := xrand.New(13)
	flat := field.New(12, 144)
	for i := range flat.Data {
		flat.Data[i] = rng.NormFloat64()
	}
	pick = append(pick, flat, ws[1])
	_, want := alone(t, pick)
	vals := make([]float64, len(pick))
	keep := make([]bool, len(pick))
	if err := windowLevels(pick, vals, keep, DefaultVarianceFraction); err != nil {
		t.Fatal(err)
	}
	for i, w := range pick {
		if vals[i] != want[i] || keep[i] != (w.MinDim() >= 2) {
			t.Errorf("window %d (%v): level %v keep %v, alone %v", i, w.Shape, vals[i], keep[i], want[i])
		}
	}
	if vals[4] != 0 || !keep[4] {
		t.Errorf("constant window: level %v keep %v, want 0 and kept", vals[4], keep[4])
	}
	if keep[5] {
		t.Error("1×32 window kept")
	}
}

// TestWindowLevelsNaNMidBatch: a non-finite window in the middle of a
// batch fails the batch with linalg.ErrNonFinite, wherever it sits and
// whichever non-finite value it holds, and the batch without it does
// not fail.
func TestWindowLevelsNaNMidBatch(t *testing.T) {
	ws := batchCorpus(t)[:8]
	vals := make([]float64, len(ws))
	keep := make([]bool, len(ws))
	if err := windowLevels(ws, vals, keep, DefaultVarianceFraction); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{3, 7} {
			batch := append([]*field.Field(nil), ws...)
			w := ws[at].Clone()
			w.Data[len(w.Data)/2] = bad
			batch[at] = w
			err := windowLevels(batch, vals, keep, DefaultVarianceFraction)
			if !errors.Is(err, linalg.ErrNonFinite) {
				t.Fatalf("%v in window %d: err %v, want ErrNonFinite", bad, at, err)
			}
		}
	}
}

// TestLevelKernelWarmBatchAllocs pins zero allocations per window: a
// warm LevelKernel batch takes its Gram matrices, line sums and solver
// storage from the pooled scratch. The race detector makes sync.Pool
// drop values at random, so the budget holds only without it.
func TestLevelKernelWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under the race detector")
	}
	ws := batchCorpus(t)[:8]
	vals := make([]float64, len(ws))
	keep := make([]bool, len(ws))
	var opt any = Options{}
	eval := func() {
		if err := (LevelKernel{}).EvalWindows(ws, vals, keep, opt); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if n := testing.AllocsPerRun(20, eval); n != 0 {
		t.Fatalf("warm batch of %d windows allocates %v times, want 0", len(ws), n)
	}
}
