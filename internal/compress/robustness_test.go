package compress_test

// Failure-injection tests: every codec must reject (or at worst decode
// wrongly) arbitrarily corrupted streams without panicking. Run against
// every built-in codec at ranks 2 and 3 via the core registry, on each
// element lane the codec has (codecs without a native float32 lane
// measure float32 fields through their float64 decoder).

import (
	"math"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// lane is one element lane of a codec, over float64 fields: the
// float32 lane narrows on the way in and widens on the way out.
type lane struct {
	name string
	enc  func(f *field.Field, eb float64) ([]byte, error)
	dec  func(data []byte) ([]float64, error)
}

func lanesOf(c compress.FieldCompressor) []lane {
	lanes := []lane{{"f64", c.CompressField, func(data []byte) ([]float64, error) {
		f, err := c.DecompressField(data)
		if err != nil {
			return nil, err
		}
		return f.Data, nil
	}}}
	if l, ok := c.(compress.Lane32Compressor); ok {
		lanes = append(lanes, lane{"f32",
			func(f *field.Field, eb float64) ([]byte, error) { return l.CompressField32(f.Narrow(), eb) },
			func(data []byte) ([]float64, error) {
				f, err := l.DecompressField32(data)
				if err != nil {
					return nil, err
				}
				return f.Widen().Data, nil
			}})
	}
	return lanes
}

// forEachCodecLane runs fn as a subtest codec/lane for every registered
// codec of rank 2 and 3.
func forEachCodecLane(t *testing.T, fn func(t *testing.T, rank int, l lane)) {
	for _, rank := range []int{2, 3} {
		for _, c := range core.DefaultRegistry().AllFor(rank) {
			t.Run(c.Name(), func(t *testing.T) {
				for _, l := range lanesOf(c) {
					t.Run(l.name, func(t *testing.T) { fn(t, rank, l) })
				}
			})
		}
	}
}

func testFieldFor(rank int, seed uint64) *field.Field {
	shape := []int{24, 31}
	if rank == 3 {
		shape = []int{7, 9, 11}
	}
	f := field.New(shape...)
	rng := xrand.New(seed)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i/shape[rank-1])/4) + 0.2*rng.NormFloat64()
	}
	return f
}

// mustNotPanic decodes data, accepting an error or garbage output.
func mustNotPanic(t *testing.T, l lane, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decompress panicked: %v", what, r)
		}
	}()
	_, _ = l.dec(data)
}

func TestDecompressNeverPanicsOnCorruption(t *testing.T) {
	forEachCodecLane(t, func(t *testing.T, rank int, l lane) {
		data, err := l.enc(testFieldFor(rank, 1), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(7)
		for trial := 0; trial < 300; trial++ {
			bad := append([]byte(nil), data...)
			switch trial % 3 {
			case 0: // flip random bytes
				for k := 0; k < 1+rng.Intn(8); k++ {
					bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // truncate
				bad = bad[:rng.Intn(len(bad))]
			case 2: // swap a random block
				if len(bad) > 16 {
					i := rng.Intn(len(bad) - 8)
					j := rng.Intn(len(bad) - 8)
					for k := 0; k < 8; k++ {
						bad[i+k], bad[j+k] = bad[j+k], bad[i+k]
					}
				}
			}
			mustNotPanic(t, l, bad, "corrupted stream")
		}
	})
}

func TestDecompressRandomGarbage(t *testing.T) {
	forEachCodecLane(t, func(t *testing.T, _ int, l lane) {
		rng := xrand.New(9)
		for trial := 0; trial < 100; trial++ {
			garbage := make([]byte, rng.Intn(2048))
			for i := range garbage {
				garbage[i] = byte(rng.Uint64())
			}
			mustNotPanic(t, l, garbage, "garbage")
		}
	})
}

func TestCompressRejectsNonFinite(t *testing.T) {
	// NaN/Inf inputs must either roundtrip through the escape path or
	// error — never violate the bound on the finite elements
	vals := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)}
	fields := map[int]*field.Field{2: field.New(2, 3), 3: field.New(2, 3, 2)}
	for _, f := range fields {
		for i := range f.Data {
			f.Data[i] = vals[i%len(vals)]
		}
	}
	forEachCodecLane(t, func(t *testing.T, rank int, l lane) {
		f := fields[rank]
		data, err := l.enc(f, 1e-6)
		if err != nil {
			return // rejecting non-finite input is acceptable
		}
		dec, err := l.dec(data)
		if err != nil {
			t.Fatalf("decode of non-finite field failed: %v", err)
		}
		for i, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if math.Abs(v-dec[i]) > 1e-6*(1+1e-12) {
				t.Fatalf("finite element %d error %v", i, math.Abs(v-dec[i]))
			}
		}
	})
}
