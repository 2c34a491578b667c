package szlike

import (
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// TestRoundTripAllocs pins the zero-allocation work on the measurement
// loop, on both lanes: with the codec's working set pooled (padded
// source and reconstruction, symbol stream, block modes) and the
// Huffman tree slab-allocated, a full-scale 128×128 round trip sits
// well under 400 allocations. The pre-pooling pipeline spent ~5000 on
// the same input (one per Huffman tree node alone), so the bound has
// wide headroom against environment noise yet catches any regression to
// per-node or per-call allocation.
func TestRoundTripAllocs(t *testing.T) {
	rng := xrand.New(3)
	f := field.New(128, 128)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	f32 := f.Narrow()
	c := Compressor{}
	for _, lane := range []struct {
		name string
		trip func() error
	}{
		{"f64", func() error {
			data, err := c.CompressField(f, 1e-3)
			if err == nil {
				_, err = c.DecompressField(data)
			}
			return err
		}},
		{"f32", func() error {
			data, err := c.CompressField32(f32, 1e-3)
			if err == nil {
				_, err = c.DecompressField32(data)
			}
			return err
		}},
	} {
		t.Run(lane.name, func(t *testing.T) {
			if err := lane.trip(); err != nil { // warm the pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := lane.trip(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 400 {
				t.Fatalf("round trip allocates %v per op, want <= 400", allocs)
			}
		})
	}
}
