package stat_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

// randomField draws a seeded field of standard normal samples.
func randomField(seed uint64, shape ...int) *field.Field {
	rng := xrand.New(seed)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// readerOf serializes f and opens it as an out-of-core source.
func readerOf(t *testing.T, f *field.Field) *field.TileReader {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := field.NewTileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checksum is a position-weighted sum over a window's elements and
// extents, so any change of content, order or clipping shows.
func checksum(w *field.Field) float64 {
	var s float64
	for k, e := range w.Shape {
		s += float64((k + 1) * e)
	}
	for i, v := range w.Data {
		s += float64(i+1) * v
	}
	return s
}

// sweepCase is one field and window edge with the tile budgets (bytes;
// 0 = one tile) it streams under.
type sweepCase struct {
	name    string
	shape   []int
	h       int
	budgets []int64
}

var sweepCases = []sweepCase{
	// 45×38 at H=8: 6×5 windows, the last row and column clipped. A
	// 3-window tile holds 3·64 elements, streamed from twice that many
	// bytes per element (Windows plans against half the budget).
	{"rank2", []int{45, 38}, 8, []int64{16 * 3 * 64, 16 * 7 * 64, 16 * 10 * 64, 0}},
	// 13×17×11 at H=4: 4×5×3 windows, clipped on every axis.
	{"rank3", []int{13, 17, 11}, 4, []int64{16 * 3 * 64, 16 * 9 * 64, 0}},
}

// oddTile reports whether some tile of the plan Windows makes under
// budget holds a window count that is not a multiple of the batch
// width, so the sweep ends a tile on a short run.
func oddTile(t *testing.T, shape []int, h int, budget int64) bool {
	t.Helper()
	tiles, err := field.PlanWindowTiles(shape, h, budget/16)
	if err != nil {
		t.Fatal(err)
	}
	wg := field.NewWindowGrid(shape, h)
	for _, tl := range tiles {
		if wg.TileWindows(tl).Len()%stat.BatchWidth != 0 {
			return true
		}
	}
	return false
}

// selection is a seeded subset of n window indices whose length is not
// a multiple of the batch width.
func selection(n int, seed uint64) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rng := xrand.New(seed)
	rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
	take := n / 2
	if take%stat.BatchWidth == 0 {
		take--
	}
	return all[:take]
}

// checksumKernel is a window kernel whose value is the window's
// checksum, kept unless it is in skip; maxRun records the largest run
// it was handed.
type checksumKernel struct {
	skip   map[float64]bool
	maxRun *atomic.Int64
}

func (checksumKernel) Name() string            { return "checksum" }
func (checksumKernel) Outputs() []string       { return []string{"checksum"} }
func (checksumKernel) Caps() stat.Caps         { return stat.Caps{Windowed: true, Streaming: true} }
func (checksumKernel) CheckWindow(h int) error { return nil }

func (k checksumKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, _ any) error {
	for n := k.maxRun.Load(); int64(len(ws)) > n && !k.maxRun.CompareAndSwap(n, int64(len(ws))); n = k.maxRun.Load() {
	}
	for i, w := range ws {
		v := checksum(w)
		vals[i], keep[i] = v, !k.skip[v]
	}
	return nil
}

func (checksumKernel) Fold(vals []float64, _ stat.FoldInfo, _ any) ([]float64, error) {
	return []float64{float64(len(vals))}, nil
}

// TestWindowsBatchedMatchesInRAM pins the batched streamed sweep to the
// in-RAM one bit for bit: each window, evaluated in runs of up to
// BatchWidth within a tile, produces exactly its in-RAM extraction's
// value, and results come back in window order (or sel order) — at
// budgets whose tiles hold window counts that are not multiples of the
// batch width, with and without a selection, at 1 and 4 workers.
func TestWindowsBatchedMatchesInRAM(t *testing.T) {
	ctx := context.Background()
	for ci, tc := range sweepCases {
		f := randomField(uint64(11+ci), tc.shape...)
		tr := readerOf(t, f)
		origins := f.TileOrigins(tc.h)
		odd := false
		for _, budget := range tc.budgets {
			odd = odd || oddTile(t, tc.shape, tc.h, budget)
		}
		if !odd {
			t.Fatalf("%s: no budget gives a tile whose window count is not a multiple of %d", tc.name, stat.BatchWidth)
		}
		for _, sel := range [][]int{nil, selection(len(origins), uint64(ci))} {
			order := sel
			if order == nil {
				order = make([]int, len(origins))
				for i := range order {
					order[i] = i
				}
			}
			// Every third window in sweep order is skipped.
			var want []float64
			for i, g := range order {
				if i%3 != 2 {
					want = append(want, checksum(f.Window(origins[g], tc.h)))
				}
			}
			skip := make(map[float64]bool)
			for i, g := range order {
				if i%3 == 2 {
					skip[checksum(f.Window(origins[g], tc.h))] = true
				}
			}
			for _, budget := range tc.budgets {
				for _, workers := range []int{1, 4} {
					k := checksumKernel{skip: skip, maxRun: new(atomic.Int64)}
					src := stat.Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: budget}}
					got, err := stat.Windows(ctx, src, k, tc.h, workers, sel, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s sel=%v budget %d workers %d: streamed values differ from in-RAM",
							tc.name, sel != nil, budget, workers)
					}
					if k.maxRun.Load() > stat.BatchWidth {
						t.Fatalf("%s: a run of %d windows exceeds the batch width %d", tc.name, k.maxRun.Load(), stat.BatchWidth)
					}
				}
			}
		}
	}
}

// TestLocalRangesBatchedMatchesInRAM runs the real lockstep kernel
// through both sweeps: the local variogram ranges of a streamed source
// equal the in-RAM ones bitwise at budgets that end tiles on short
// runs, with and without a selection.
func TestLocalRangesBatchedMatchesInRAM(t *testing.T) {
	ctx := context.Background()
	k := variogram.LocalRangeKernel{}
	for ci, tc := range sweepCases {
		f := randomField(uint64(23+ci), tc.shape...)
		tr := readerOf(t, f)
		n := field.NewWindowGrid(tc.shape, tc.h).Total()
		for _, sel := range [][]int{nil, selection(n, uint64(5+ci))} {
			want, err := stat.Windows(ctx, stat.Source{F64: f}, k, tc.h, 1, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: no kept windows", tc.name)
			}
			for _, budget := range tc.budgets {
				src := stat.Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: budget}}
				got, err := stat.Windows(ctx, src, k, tc.h, 4, sel, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s sel=%v budget %d: %d ranges, want %d", tc.name, sel != nil, budget, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s sel=%v budget %d: range[%d] = %v, want %v",
							tc.name, sel != nil, budget, i, got[i], want[i])
					}
				}
			}
		}
	}
}
