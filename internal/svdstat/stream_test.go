package svdstat

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

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

// TestLocalLevelsReaderBitIdentity pins the streamed SVD window sweep
// against the in-RAM sweep bit for bit — ranks 2 and 3, both stored
// lanes, worker counts and tile budgets.
func TestLocalLevelsReaderBitIdentity(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		shape []int
		h     int
	}{
		{[]int{37, 29}, 8},
		{[]int{19, 23, 17}, 5},
	}
	for ci, tc := range cases {
		rng := xrand.New(uint64(500 + ci))
		f := field.New(tc.shape...)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		f32 := field.New32(tc.shape...)
		for i := range f32.Data {
			f32.Data[i] = float32(rng.NormFloat64())
		}
		tr := writeTempField(t, f.WriteBinary)
		tr32 := writeTempField(t, f32.WriteBinary)
		winBytes := int64(8)
		for range tc.shape {
			winBytes *= int64(tc.h)
		}
		want, err := LocalLevels(ctx, in64(f), tc.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want32, err := LocalLevels(ctx, stat.Source{F32: f32}, tc.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{2 * winBytes, 0} {
			so := field.StreamOptions{BudgetBytes: budget}
			for _, workers := range []int{1, 3} {
				o := Options{Workers: workers}
				got, err := LocalLevels(ctx, stat.Source{Reader: tr, Stream: so}, tc.h, o)
				if err != nil {
					t.Fatal(err)
				}
				got32, err := LocalLevels(ctx, stat.Source{Reader: tr32, Stream: so}, tc.h, o)
				if err != nil {
					t.Fatal(err)
				}
				assertSame(t, tc.shape, budget, got, want)
				assertSame(t, tc.shape, budget, got32, want32)
			}
		}
	}
}

func assertSame(t *testing.T, shape []int, budget int64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("shape %v budget %d: %d levels, want %d", shape, budget, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shape %v budget %d: level[%d] = %v, want %v", shape, budget, i, got[i], want[i])
		}
	}
}
