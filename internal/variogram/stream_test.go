package variogram

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/stat"
)

// writeTempField serializes a field (either lane's WriteBinary) and
// returns a TileReader over the file, closed with the test.
func writeTempField(t testing.TB, write func(w io.Writer) error) *field.TileReader {
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
// and tile budgets from one-window-at-a-time to unbounded.
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
			so := field.StreamOptions{BudgetBytes: budget}
			for _, workers := range []int{1, 3} {
				got, err := LocalRanges(ctx, onDisk(tr, so), tc.h, Options{Workers: workers})
				if err != nil {
					t.Fatalf("shape %v budget %d: %v", tc.shape, budget, err)
				}
				if len(got) != len(want) {
					t.Fatalf("shape %v budget %d workers %d: %d ranges, want %d",
						tc.shape, budget, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shape %v budget %d workers %d: range[%d] = %v, want %v",
							tc.shape, budget, workers, i, got[i], want[i])
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
						t.Fatalf("f32 shape %v budget %d workers %d: range[%d] = %v, want %v",
							tc.shape, budget, workers, i, got32[i], want32[i])
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

// shardBudget returns the memory budget at which the sharded spectral
// engine picks base extent s for a field of shape dims at lag cutoff
// nb — twice the slab bound, since shards are planned against half the
// budget — and fails the test unless fftShardSize confirms that extent.
func shardBudget(t *testing.T, dims []int, nb, s int) int64 {
	t.Helper()
	budget := 2 * shardBytes(s, dims, nb)
	if got, err := fftShardSize(dims, nb, budget); err != nil || got != s {
		t.Fatalf("shape %v lag %d budget %d: shard extent %d (%v), want %d", dims, nb, budget, got, err, s)
	}
	return budget
}

// TestFFTScanReaderMatchesExact pins the sharded spectral engine's
// contract: pair counts exactly equal the direct scan's at every shard
// size, Gamma to 1e-9 relative, and the result is bit-stable across
// worker counts at a fixed budget. Each case runs at budgets derived to
// force shard extent 1 (below the lag cutoff, so every pair block spans
// many slabs), a middle extent, and n₀ (one slab), plus unbounded.
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
		{[]int{300}, 40},
		{[]int{20, 1, 30}, 6},
	}
	for ci, tc := range cases {
		f := randomField(tc.shape, uint64(400+ci))
		ex, err := Compute(bg, in64(f), Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		tr := writeTempField(t, f.WriteBinary)
		nb := Options{MaxLag: tc.maxLag}.withDefaults(tc.shape).MaxLag
		n0 := tc.shape[0]
		budgets := []int64{0}
		for _, s := range []int{1, max(2, (n0-nb)/2), n0} {
			budgets = append(budgets, shardBudget(t, tc.shape, nb, s))
		}
		for _, budget := range budgets {
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

// TestFFTShardPeakWithinBudget: the sharded spectral engine's
// transform-pool peak stays inside the memory budget on both stored
// lanes, at shard extents 1, middle and n₀, on a drained pool and on a
// warm one. The slab bound behind the shard size holds the measured
// peak of every slab's kernel call on a drained pool; across a run,
// slabs recycle each other's buffers at up to twice their length,
// which the budget's factor of two absorbs.
func TestFFTShardPeakWithinBudget(t *testing.T) {
	ctx := context.Background()
	shape := []int{72, 20, 18}
	o := Options{FFT: true}.withDefaults(shape)
	nb := o.MaxLag
	rest := shape[1] * shape[2]
	f32, f := randomField32(shape, 911)
	drain := func() { // two collections empty every sync.Pool
		runtime.GC()
		runtime.GC()
	}
	lanes := []struct {
		name string
		tr   *field.TileReader
	}{
		{"float64", writeTempField(t, f.WriteBinary)},
		{"float32", writeTempField(t, f32.WriteBinary)},
	}
	for _, s := range []int{1, (shape[0] - nb) / 2, shape[0]} {
		budget := shardBudget(t, shape, nb, s)
		for _, lane := range lanes {
			drain()
			for _, pass := range []string{"drained", "warm"} {
				fft.ResetPeakBytes()
				base := fft.LiveBytes()
				if _, err := Compute(ctx, onDisk(lane.tr, field.StreamOptions{BudgetBytes: budget}), o); err != nil {
					t.Fatal(err)
				}
				peak := fft.PeakBytes() - base
				t.Logf("%s shard %d %s: peak %d bytes, budget %d", lane.name, s, pass, peak, budget)
				if peak > budget {
					t.Fatalf("%s shard %d %s: peak %d bytes > budget %d", lane.name, s, pass, peak, budget)
				}
			}
		}
		// Every slab's kernel call, block outside the pool, on a
		// drained pool: within the kernel's share of the slab bound.
		sum := make([]float64, nb+1)
		cnt := make([]int64, nb+1)
		for z0 := 0; z0 < shape[0]; z0 += s {
			z1 := min(z0+s, shape[0])
			z2 := min(z1+nb, shape[0])
			blk := append([]int{z2 - z0}, shape[1:]...)
			want := slabPeakBytes(blk, z1-z0, nb)
			drain()
			fft.ResetPeakBytes()
			base := fft.LiveBytes()
			if err := fftSlab(ctx, f.Data[z0*rest:z2*rest], blk, z1-z0, 0, o, sum, cnt); err != nil {
				t.Fatal(err)
			}
			if peak := fft.PeakBytes() - base; peak > want {
				t.Fatalf("shard %d slab at row %d: kernel peak %d bytes > slabPeakBytes %d", s, z0, peak, want)
			}
		}
	}
}

// BenchmarkVariogramFFTReader measures the sharded spectral engine over
// a stored field at a 12 MiB budget, which splits both shapes into
// several slabs; peakMB is the transform-pool peak of the last run.
func BenchmarkVariogramFFTReader(b *testing.B) {
	for _, shape := range [][]int{{256, 32, 32}, {512, 256}} {
		name := fmt.Sprint(shape[0])
		for _, d := range shape[1:] {
			name += fmt.Sprintf("x%d", d)
		}
		b.Run(name, func(b *testing.B) {
			tr := writeTempField(b, randomField(shape, 17).WriteBinary)
			src := onDisk(tr, field.StreamOptions{BudgetBytes: 12 << 20})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := Compute(bg, src, Options{FFT: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "peakMB")
		})
	}
}

// BenchmarkSampledScanReader times the streamed sampled scan of a 48³
// float32 volume at a 221,184-byte budget (half the payload), over a
// bytes.Reader (mem) and a temp file (file), with the in-RAM scan of
// the same field as the reference (ram); file64 is the same volume
// stored as float64, at half its 884,736-byte payload, read in float64
// slots. cold draws a fresh seed every iteration, so every call draws
// directly; warm repeats one key, so every call after the first two
// walks its cached plan and span layout.
func BenchmarkSampledScanReader(b *testing.B) {
	shape := []int{48, 48, 48}
	f32, wide := randomField32(shape, 21)
	var raw bytes.Buffer
	if err := f32.WriteBinary(&raw); err != nil {
		b.Fatal(err)
	}
	mem, err := field.NewTileReader(bytes.NewReader(raw.Bytes()), int64(raw.Len()), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	so := field.StreamOptions{BudgetBytes: 221_184}
	srcs := []struct {
		name string
		src  stat.Source
	}{
		{"ram", in32(f32)},
		{"mem", onDisk(mem, so)},
		{"file", onDisk(writeTempField(b, f32.WriteBinary), so)},
		{"file64", onDisk(writeTempField(b, wide.WriteBinary), field.StreamOptions{BudgetBytes: 442_368})},
	}
	coldSeed := uint64(3) << 32 // never repeats across runs, so never planned
	for _, s := range srcs {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(s.name+"/"+mode, func(b *testing.B) {
				o := Options{Seed: 0x5ca1ab1e}
				for i := 0; i < 2; i++ { // admit the warm key
					if _, err := Compute(bg, s.src, o); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						coldSeed++
						o.Seed = coldSeed
					}
					e, err := Compute(bg, s.src, o)
					if err != nil {
						b.Fatal(err)
					}
					sinkEmpirical = e
				}
			})
		}
	}
}
