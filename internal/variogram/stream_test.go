package variogram

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/field"
)

// writeTempField serializes a field (either lane's WriteBinary) and
// returns a TileReader over the file, closed with the test.
func writeTempField(t *testing.T, write func(w io.Writer) error) *field.TileReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.lcf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
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

// TestLocalRangesReaderBitIdentity pins the tentpole contract: the
// streamed windowed variogram sweep equals the in-RAM sweep bit for
// bit — across ranks, odd shapes, both stored lanes, worker counts,
// tile budgets from one-window-at-a-time to unbounded, and halos up to
// and beyond the tile edge.
func TestLocalRangesReaderBitIdentity(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		shape []int
		h     int
	}{
		{[]int{37, 29}, 8},
		{[]int{64, 64}, 16},
		{[]int{19, 23, 17}, 5},
	}
	for ci, tc := range cases {
		f := randomField(tc.shape, uint64(300+ci))
		want, err := LocalRanges(ctx, in64(f), tc.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f32, _ := randomField32(tc.shape, uint64(700+ci))
		want32, err := LocalRanges(ctx, in32(f32), tc.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := writeTempField(t, f.WriteBinary)
		tr32 := writeTempField(t, f32.WriteBinary)
		// Budgets in bytes: one window's elements, a few windows, all.
		winBytes := int64(8)
		for range tc.shape {
			winBytes *= int64(tc.h)
		}
		for _, budget := range []int64{2 * winBytes, 6 * winBytes, 0} {
			for _, halo := range []int{0, 3, tc.h + 2} {
				so := field.StreamOptions{BudgetBytes: budget, Halo: halo}
				for _, workers := range []int{1, 3} {
					got, err := LocalRanges(ctx, onDisk(tr, so), tc.h, Options{Workers: workers})
					if err != nil {
						t.Fatalf("shape %v budget %d halo %d: %v", tc.shape, budget, halo, err)
					}
					if len(got) != len(want) {
						t.Fatalf("shape %v budget %d halo %d workers %d: %d ranges, want %d",
							tc.shape, budget, halo, workers, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shape %v budget %d halo %d workers %d: range[%d] = %v, want %v",
								tc.shape, budget, halo, workers, i, got[i], want[i])
						}
					}
					got32, err := LocalRanges(ctx, onDisk(tr32, so), tc.h, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if len(got32) != len(want32) {
						t.Fatalf("f32 shape %v: %d ranges, want %d", tc.shape, len(got32), len(want32))
					}
					for i := range want32 {
						if got32[i] != want32[i] {
							t.Fatalf("f32 shape %v budget %d halo %d workers %d: range[%d] = %v, want %v",
								tc.shape, budget, halo, workers, i, got32[i], want32[i])
						}
					}
				}
			}
		}
	}
}

// TestSampledScanReaderBitIdentity: the out-of-core pair sampler draws
// the identical seeded sequence through the reader's point-access lane,
// so the whole Empirical matches the in-RAM sampler bitwise — both
// stored lanes.
func TestSampledScanReaderBitIdentity(t *testing.T) {
	ctx := context.Background()
	shape := []int{70, 61} // above the rank-2 exact threshold
	opts := Options{Seed: 42, MaxPairs: 20_000}
	f := randomField(shape, 901)
	want, err := Compute(ctx, in64(f), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := writeTempField(t, f.WriteBinary)
	got, err := Compute(ctx, onDisk(tr, field.StreamOptions{BudgetBytes: 1 << 12}), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertEmpiricalEqual(t, got, want)

	f32, _ := randomField32(shape, 902)
	want32, err := Compute(ctx, in32(f32), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr32 := writeTempField(t, f32.WriteBinary)
	got32, err := Compute(ctx, onDisk(tr32, field.StreamOptions{BudgetBytes: 1 << 12}), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertEmpiricalEqual(t, got32, want32)
}

func assertEmpiricalEqual(t *testing.T, got, want *Empirical) {
	t.Helper()
	if len(got.H) != len(want.H) {
		t.Fatalf("%d bins, want %d", len(got.H), len(want.H))
	}
	for i := range want.H {
		if got.H[i] != want.H[i] || got.N[i] != want.N[i] || got.Gamma[i] != want.Gamma[i] {
			t.Fatalf("bin %d: (%v,%d,%v), want (%v,%d,%v)",
				i, got.H[i], got.N[i], got.Gamma[i], want.H[i], want.N[i], want.Gamma[i])
		}
	}
}

// TestExactScanReaderBitIdentity: small fields dispatch to the exact
// scan through a materialized copy, which must be bitwise the in-RAM
// exact result.
func TestExactScanReaderBitIdentity(t *testing.T) {
	ctx := context.Background()
	shape := []int{23, 21}
	f := randomField(shape, 903)
	want, err := Compute(ctx, in64(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := writeTempField(t, f.WriteBinary)
	got, err := Compute(ctx, onDisk(tr, field.StreamOptions{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEmpiricalEqual(t, got, want)
}

// TestFFTScanReaderMatchesExact pins the sharded spectral engine's
// contract: pair counts exactly equal the direct scan's at every shard
// size, Gamma to 1e-9 relative, and the result is bit-stable across
// worker counts at a fixed budget.
func TestFFTScanReaderMatchesExact(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		shape  []int
		maxLag int
	}{
		{[]int{37, 53}, 0},
		{[]int{96, 40}, 13},
		{[]int{17, 19, 23}, 0},
		{[]int{24, 24, 24}, 7},
	}
	for ci, tc := range cases {
		f := randomField(tc.shape, uint64(400+ci))
		ex, err := Compute(bg, in64(f), Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		tr := writeTempField(t, f.WriteBinary)
		// Budgets that force many slabs, a few slabs, and one slab.
		for _, budget := range []int64{0, 1 << 22, 1 << 25} {
			var ref *Empirical
			for _, workers := range []int{1, 3} {
				got, err := Compute(ctx, onDisk(tr, field.StreamOptions{BudgetBytes: budget}),
					Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
				if err != nil {
					t.Fatalf("shape %v budget %d: %v", tc.shape, budget, err)
				}
				if len(got.H) != len(ex.H) {
					t.Fatalf("shape %v budget %d: %d bins vs exact %d", tc.shape, budget, len(got.H), len(ex.H))
				}
				for i := range ex.H {
					if got.N[i] != ex.N[i] {
						t.Fatalf("shape %v budget %d bin h=%v: count %d vs exact %d",
							tc.shape, budget, ex.H[i], got.N[i], ex.N[i])
					}
					rel := math.Abs(got.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
					if rel > 1e-9 {
						t.Fatalf("shape %v budget %d bin h=%v: gamma %v vs exact %v (rel %g)",
							tc.shape, budget, ex.H[i], got.Gamma[i], ex.Gamma[i], rel)
					}
				}
				if ref == nil {
					ref = got
				} else {
					for i := range ref.Gamma {
						if got.Gamma[i] != ref.Gamma[i] {
							t.Fatalf("shape %v budget %d: worker-dependent gamma at bin %d", tc.shape, budget, i)
						}
					}
				}
			}
		}
	}
}

// TestFFTShardBudgetTooSmall: a budget that cannot hold even a
// one-plane shard errors instead of over-allocating.
func TestFFTShardBudgetTooSmall(t *testing.T) {
	f := randomField([]int{48, 96, 96}, 905)
	tr := writeTempField(t, f.WriteBinary)
	_, err := Compute(bg, onDisk(tr, field.StreamOptions{BudgetBytes: 1 << 12}), Options{FFT: true})
	if err == nil {
		t.Fatal("expected budget error")
	}
}
