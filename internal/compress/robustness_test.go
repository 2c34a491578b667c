package compress_test

// Failure-injection tests: every codec must reject (or at worst decode
// wrongly) arbitrarily corrupted streams without panicking. Run against
// every built-in codec at ranks 2 and 3 via the core registry, on both
// element lanes.

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/lossless"
	"lossycorr/internal/mgardlike"
	"lossycorr/internal/szlike"
	"lossycorr/internal/xrand"
	"lossycorr/internal/zfplike"
)

// lane is one element lane of a codec, over float64 fields: the
// float32 lane narrows on the way in and widens on the way out.
type lane struct {
	name string
	enc  func(f *field.Field, eb float64) ([]byte, error)
	dec  func(data []byte) ([]float64, error)
}

func lanesOf(c compress.FieldCompressor) []lane {
	return []lane{{"f64", c.CompressField, func(data []byte) ([]float64, error) {
		f, err := c.DecompressField(data)
		if err != nil {
			return nil, err
		}
		return f.Data, nil
	}}, {"f32",
		func(f *field.Field, eb float64) ([]byte, error) { return c.CompressField32(f.Narrow(), eb) },
		func(data []byte) ([]float64, error) {
			f, err := c.DecompressField32(data)
			if err != nil {
				return nil, err
			}
			return f.Widen().Data, nil
		}}}
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

// TestRejectNonFiniteBound pins the one bound check on every codec
// lane: its encoder and its decoder's header parse refuse an error
// bound that is not finite and positive.
func TestRejectNonFiniteBound(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-3}
	forEachCodecLane(t, func(t *testing.T, rank int, l lane) {
		f := testFieldFor(rank, 3)
		for _, eb := range bad {
			if _, err := l.enc(f, eb); err == nil {
				t.Errorf("encoder accepted eb=%v", eb)
			}
		}
		data, err := l.enc(f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		raw := inflate(t, data)
		for _, eb := range bad { // the bound follows the magic and extents
			binary.LittleEndian.PutUint64(raw[4+4*rank:], math.Float64bits(eb))
			patched, err := lossless.Compress(raw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.dec(patched); err == nil {
				t.Errorf("decoder accepted a stream whose bound is %v", eb)
			}
		}
	})
}

// FuzzCodecDecode feeds arbitrary bytes to the decoder of every codec of
// rank 2 and 3 on both lanes, seeded with a valid stream of each, in
// both forms: allocating, and into a caller's field. No input may
// panic; a decoded field holds exactly as many samples as its shape
// claims; the caller's-field form accepts exactly what the allocating
// form accepts, into a field of that shape holding other samples, and
// gives the same bits.
func FuzzCodecDecode(f *testing.F) {
	reg := core.DefaultRegistry()
	codecs := append(reg.AllFor(2), reg.AllFor(3)...)
	for _, c := range codecs {
		src := testFieldFor(c.Ranks()[0], 5)
		for _, enc := range []func() ([]byte, error){
			func() ([]byte, error) { return c.CompressField(src, 1e-3) },
			func() ([]byte, error) { return c.CompressField32(src.Narrow(), 1e-3) },
		} {
			data, err := enc()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			g, err := c.DecompressField(data)
			if err == nil && len(g.Data) != g.Len() {
				t.Fatalf("%s/f64: %d samples for shape %v", c.Name(), len(g.Data), g.Shape)
			}
			dst := decodeDst(g, c.Ranks()[0])
			if h, errInto := c.DecompressField(data, dst); (err == nil) != (errInto == nil) ||
				err == nil && (h != dst || !sameBits(h.Data, g.Data)) {
				t.Fatalf("%s/f64: into a field: %v, allocating: %v", c.Name(), errInto, err)
			}
			g32, err := c.DecompressField32(data)
			if err == nil && len(g32.Data) != g32.Len() {
				t.Fatalf("%s/f32: %d samples for shape %v", c.Name(), len(g32.Data), g32.Shape)
			}
			var shape *field.Field
			if err == nil {
				shape = g32.Widen()
			}
			dst32 := decodeDst(shape, c.Ranks()[0]).Narrow()
			if h, errInto := c.DecompressField32(data, dst32); (err == nil) != (errInto == nil) ||
				err == nil && (h != dst32 || !sameBits(h.Data, g32.Data)) {
				t.Fatalf("%s/f32: into a field: %v, allocating: %v", c.Name(), errInto, err)
			}
		}
	})
}

// decodeDst returns a field of g's shape, or of a small one of the given
// rank when g is nil, filled with NaN so that a decoder that skips a
// sample shows.
func decodeDst(g *field.Field, rank int) *field.Field {
	shape := []int{3, 3, 3}[:rank]
	if g != nil {
		shape = g.Shape
	}
	dst := field.New(shape...)
	for i := range dst.Data {
		dst.Data[i] = math.NaN()
	}
	return dst
}

// inflate returns the codec header and payload under a stream's
// lossless stage.
func inflate(t *testing.T, data []byte) []byte {
	t.Helper()
	z := lossless.NewInflater(data)
	defer z.Close()
	raw, err := z.Append(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// storedBlock is a non-final stored DEFLATE block holding b (at most
// 65535 bytes). It ends on a byte boundary, so any DEFLATE stream may
// follow it, and the two inflate to b and then that stream's bytes.
func storedBlock(b []byte) []byte {
	out := []byte{0} // BFINAL 0, BTYPE 00, padding
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b)))
	out = binary.LittleEndian.AppendUint16(out, ^uint16(len(b)))
	return append(out, b...)
}

// TestInflateBound feeds every codec lane a deflate bomb, 64 MiB of
// zeros deflated to ~64 KB: bare, and behind a valid header of the
// lane's own stream. Both must be rejected as corrupt, and neither
// decode may allocate 4 MiB: the header's shape bounds how far the
// lossless stage inflates, and a bare bomb fails its header.
func TestInflateBound(t *testing.T) {
	bomb, err := lossless.Compress(make([]byte, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	forEachCodecLane(t, func(t *testing.T, rank int, l lane) {
		data, err := l.enc(testFieldFor(rank, 2), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		raw := inflate(t, data)
		framed := append(storedBlock(raw[:4+4*rank+8]), bomb...)
		for _, s := range []struct {
			name string
			data []byte
		}{{"bare", bomb}, {"framed", framed}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := l.dec(s.data)
			runtime.ReadMemStats(&after)
			if !isCorrupt(err) {
				t.Errorf("%s bomb: got %v, want a corrupt-stream error", s.name, err)
			}
			if s.name == "framed" && !errors.Is(err, lossless.ErrTooLong) {
				t.Errorf("framed bomb: got %v, want it stopped at the header's bound", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
				t.Errorf("%s bomb: decode allocated %d bytes, want < 4 MiB", s.name, n)
			}
		}
	})
}

// isCorrupt reports whether err is one of the codecs' corrupt-stream
// errors.
func isCorrupt(err error) bool {
	return errors.Is(err, szlike.ErrCorrupt) || errors.Is(err, zfplike.ErrCorrupt) || errors.Is(err, mgardlike.ErrCorrupt)
}
