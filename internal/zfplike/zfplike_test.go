package zfplike

// Codec tests run as per-(rank, lane) tables: every behaviour is
// checked on both element lanes through the one generic encoder and
// decoder, and tests named …3D run the rank-3 rows of the behaviour
// whose rank-2 rows carry the plain name.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/lossless"
	"lossycorr/internal/xrand"
)

// lane is one element lane as the tests drive it, over float64 samples:
// the float32 lane narrows on the way in and widens on the way out.
type lane struct {
	name  string
	width int // bytes per stored sample
	enc   func(shape []int, data []float64, eb float64) ([]byte, error)
	dec   func(stream []byte, rank int) ([]float64, error)
	// seen is what the lane compresses: the samples, rounded to float32
	// on the float32 lane.
	seen func(data []float64) []float64
}

func convert[D, S field.Elem](s []S) []D {
	out := make([]D, len(s))
	for i, v := range s {
		out[i] = D(v)
	}
	return out
}

func laneOf[T field.Elem](name string) lane {
	return lane{
		name:  name,
		width: field.ElemBytes[T](),
		enc: func(shape []int, data []float64, eb float64) ([]byte, error) {
			return encode(shape, convert[T](data), len(shape), eb)
		},
		dec: func(stream []byte, rank int) ([]float64, error) {
			f, err := decode[T](stream, rank, nil)
			if err != nil {
				return nil, err
			}
			return convert[float64](f.Data), nil
		},
		seen: func(data []float64) []float64 { return convert[float64](convert[T](data)) },
	}
}

var (
	f64   = laneOf[float64]("f64")
	f32   = laneOf[float32]("f32")
	lanes = []lane{f64, f32}
)

// eachLane runs body as one subtest per lane.
func eachLane(t *testing.T, body func(t *testing.T, l lane)) {
	for _, l := range lanes {
		t.Run(l.name, func(t *testing.T) { body(t, l) })
	}
}

// sample evaluates fn over shape (a rank-2 shape sees z = 0), last axis
// fastest.
func sample(shape []int, fn func(z, y, x int) float64) []float64 {
	d := [3]int{1, 1, 1}
	copy(d[3-len(shape):], shape)
	out := make([]float64, 0, d[0]*d[1]*d[2])
	for z := range d[0] {
		for y := range d[1] {
			for x := range d[2] {
				out = append(out, fn(z, y, x))
			}
		}
	}
	return out
}

func noise(shape []int, seed uint64, scale float64) []float64 {
	rng := xrand.New(seed)
	return sample(shape, func(_, _, _ int) float64 { return scale * rng.NormFloat64() })
}

func gaussianField(t testing.TB, shape []int, rang float64, seed uint64) []float64 {
	t.Helper()
	if len(shape) == 2 {
		g, err := gaussian.Generate(gaussian.Params{Rows: shape[0], Cols: shape[1], Range: rang, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g.Data
	}
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: shape[0], Ny: shape[1], Nx: shape[2], Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return v.Data
}

// maxErr is max|a−b|, ignoring non-finite pairs.
func maxErr(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// roundtrip compresses data on lane l, decompresses it, checks the
// bound strictly against the samples the lane compressed, and returns
// the stream and the reconstruction.
func roundtrip(t *testing.T, l lane, shape []int, data []float64, eb float64) ([]byte, []float64) {
	t.Helper()
	stream, err := l.enc(shape, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l.dec(stream, len(shape))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(data) {
		t.Fatalf("shape %v: %d samples decoded, want %d", shape, len(dec), len(data))
	}
	if m := maxErr(l.seen(data), dec); m > eb {
		t.Fatalf("shape %v: bound violated: maxErr %v > eb %v", shape, m, eb)
	}
	return stream, dec
}

func TestName(t *testing.T) {
	if (Compressor{}).Name() != "zfp-like" {
		t.Fatal("name changed")
	}
	if r := (Compressor{}).Ranks(); len(r) != 1 || r[0] != 2 {
		t.Fatalf("ranks %v", r)
	}
}

func TestName3D(t *testing.T) {
	if (Compressor{Rank: 3}).Name() != "zfp-like-3d" {
		t.Fatal("unexpected name")
	}
	if r := (Compressor{Rank: 3}).Ranks(); len(r) != 1 || r[0] != 3 {
		t.Fatalf("ranks %v", r)
	}
}

// transformInvertible checks forward∘inverse is the identity on 4^d
// blocks within the codec's fixed-point range.
func transformInvertible(t *testing.T, rank int) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		q := make([]int64, 1<<(2*rank))
		for i := range q {
			q[i] = int64(rng.Uint64()>>13) - 1<<50
		}
		orig := append([]int64(nil), q...)
		forward(q)
		inverse(q)
		for i := range q {
			if q[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformInvertible(t *testing.T) { transformInvertible(t, 2) }

func TestInverseBlock3DExact(t *testing.T) { transformInvertible(t, 3) }

func TestLift4Invertible(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		p := []int64{a % (1 << 50), b % (1 << 50), c % (1 << 50), d % (1 << 50)}
		orig := append([]int64(nil), p...)
		fwd4(p, 1)
		inv4(p, 1)
		for i := range p {
			if p[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryRoundtrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 52, -(1 << 52)} {
		if got := fromNegabinary(toNegabinary(v)); got != v {
			t.Fatalf("negabinary roundtrip %d -> %d", v, got)
		}
	}
	f := func(v int64) bool { return fromNegabinary(toNegabinary(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryTruncationBounded(t *testing.T) {
	// zeroing the low k digits must perturb the value by < 2^k
	f := func(v int64, kRaw uint8) bool {
		v %= 1 << 40
		k := uint(kRaw % 30)
		u := toNegabinary(v)
		trunc := u &^ ((1 << k) - 1)
		got := fromNegabinary(trunc)
		return math.Abs(float64(got-v)) < float64(uint64(1)<<k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockExponent(t *testing.T) {
	for _, n := range []int{16, 64} {
		vals := make([]float64, n)
		if _, zero := blockExponent(vals); !zero {
			t.Fatal("zero block not detected")
		}
		vals[3] = 0.75 // frexp: 0.75 = 0.75·2^0
		if e, zero := blockExponent(vals); zero || e != 0 {
			t.Fatalf("exponent %d want 0", e)
		}
		vals[n-1] = -3 // 0.75·2^2
		if e, _ := blockExponent(vals); e != 2 {
			t.Fatalf("exponent %d want 2", e)
		}
	}
}

func TestRoundtripSmooth(t *testing.T) {
	shape := []int{48, 64}
	data := sample(shape, func(_, r, c int) float64 { return math.Sin(float64(r)/7) * math.Cos(float64(c)/9) })
	eachLane(t, func(t *testing.T, l lane) {
		for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
			roundtrip(t, l, shape, data, eb)
		}
	})
}

func TestRoundtrip3DSmooth(t *testing.T) {
	shape := []int{12, 10, 14}
	data := sample(shape, func(z, y, x int) float64 {
		return math.Sin(0.4*float64(z)) + math.Cos(0.3*float64(y))*float64(x)*0.1
	})
	eachLane(t, func(t *testing.T, l lane) {
		for _, eb := range []float64{1e-2, 1e-4, 1e-8} {
			roundtrip(t, l, shape, data, eb)
		}
	})
}

func TestRoundtripNoise(t *testing.T) {
	shape := []int{31, 29}
	data := noise(shape, 5, 50)
	eachLane(t, func(t *testing.T, l lane) { roundtrip(t, l, shape, data, 1e-4) })
}

func TestRoundtrip3DNoise(t *testing.T) {
	shape := []int{9, 11, 7}
	data := noise(shape, 4, 1)
	eachLane(t, func(t *testing.T, l lane) {
		for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
			roundtrip(t, l, shape, data, eb)
		}
	})
}

func TestRoundtrip3DGaussianField(t *testing.T) {
	shape := []int{16, 16, 16}
	data := gaussianField(t, shape, 3, 2)
	eachLane(t, func(t *testing.T, l lane) { roundtrip(t, l, shape, data, 1e-3) })
}

func TestRoundtripConstantZero(t *testing.T) {
	eachLane(t, func(t *testing.T, l lane) {
		for _, shape := range [][]int{{16, 16}, {8, 8, 8}} {
			roundtrip(t, l, shape, sample(shape, func(_, _, _ int) float64 { return 0 }), 1e-6)
		}
	})
}

// TestOddSizes round-trips noise over clipped edge blocks and extent-1
// axes at ranks 2 and 3.
func TestOddSizes(t *testing.T) {
	eachLane(t, func(t *testing.T, l lane) {
		for i, shape := range [][]int{
			{1, 1}, {1, 9}, {9, 1}, {3, 5}, {4, 4}, {5, 4}, {7, 13},
			{1, 1, 1}, {1, 4, 9}, {5, 1, 4}, {4, 5, 1}, {3, 5, 7},
		} {
			roundtrip(t, l, shape, noise(shape, uint64(i), 1), 1e-3)
		}
	})
}

func TestTinyToleranceFallsBackToRaw(t *testing.T) {
	// tolerance finer than fixed-point precision: raw mode must kick in
	// and reproduce exactly
	for _, shape := range [][]int{{8, 8}, {4, 4, 8}} {
		data := sample(shape, func(z, y, x int) float64 { return 1e15 + float64((z*8+y)*8+x) })
		_, dec := roundtrip(t, f64, shape, data, 1e-12)
		if d := maxErr(data, dec); d != 0 {
			t.Fatalf("%v: raw mode not exact: %v", shape, d)
		}
	}
}

func TestExtremeValues(t *testing.T) {
	shape := []int{2, 4}
	eachLane(t, func(t *testing.T, l lane) {
		big, tiny := 1e300, 1e-300
		if l.width == 4 {
			big, tiny = 1e38, 1e-38
		}
		roundtrip(t, l, shape, []float64{big, -big, tiny, 0, 5, -5, 1e18, -1e-18}, 1e-6)
	})
}

// errorsAt pins the argument errors of a rank: an empty field, a
// non-positive bound, and a field of another rank.
func errorsAt(t *testing.T, c compress.FieldCompressor, empty, ok, wrongRank []int) {
	eachLane(t, func(t *testing.T, l lane) {
		if _, err := l.enc(empty, nil, 1e-3); err == nil {
			t.Fatal("empty field must error")
		}
		for _, eb := range []float64{0, -1} {
			if _, err := l.enc(ok, noise(ok, 1, 1), eb); err == nil {
				t.Fatalf("eb=%v must error", eb)
			}
		}
	})
	if _, err := c.CompressField(field.New(wrongRank...), 1e-3); err == nil {
		t.Fatalf("%s accepted a rank-%d field", c.Name(), len(wrongRank))
	}
}

func TestEmptyAndBadBound(t *testing.T) {
	errorsAt(t, Compressor{}, []int{0, 0}, []int{4, 4}, []int{4, 4, 4})
}

func TestErrors3D(t *testing.T) {
	errorsAt(t, Compressor{Rank: 3}, []int{0, 4, 4}, []int{4, 4, 4}, []int{4, 4})
}

// smoothBeatsNoise checks a correlated field compresses smaller than
// white noise of the same shape.
func smoothBeatsNoise(t *testing.T, shape []int, rang float64, seed uint64) {
	smooth := gaussianField(t, shape, rang, seed)
	rough := noise(shape, seed, 1)
	eachLane(t, func(t *testing.T, l lane) {
		ds, _ := roundtrip(t, l, shape, smooth, 1e-3)
		dn, _ := roundtrip(t, l, shape, rough, 1e-3)
		if len(ds) >= len(dn) {
			t.Fatalf("smooth (%d B) not smaller than noise (%d B)", len(ds), len(dn))
		}
	})
}

func TestSmoothBeatsNoise(t *testing.T) { smoothBeatsNoise(t, []int{64, 64}, 16, 7) }

func TestSmoother3DCompressesBetter(t *testing.T) { smoothBeatsNoise(t, []int{16, 16, 16}, 6, 3) }

func TestRatioIncreasesWithBound(t *testing.T) {
	shape := []int{64, 64}
	data := gaussianField(t, shape, 8, 8)
	eachLane(t, func(t *testing.T, l lane) {
		var sizes []int
		for _, eb := range []float64{1e-6, 1e-4, 1e-2} {
			stream, _ := roundtrip(t, l, shape, data, eb)
			sizes = append(sizes, len(stream))
		}
		if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
			t.Fatalf("sizes not decreasing: %v", sizes)
		}
	})
}

// hostileHeader is a well-formed lossless stream whose header claims
// every extent as ext.
func hostileHeader(rank, li int, ext uint32) []byte {
	raw := append([]byte(nil), magic[rank-2][li][:]...)
	for range rank {
		raw = binary.LittleEndian.AppendUint32(raw, ext)
	}
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(1e-3))
	raw = append(raw, make([]byte, 64)...)
	data, err := lossless.Compress(raw)
	if err != nil {
		panic(err)
	}
	return data
}

// corrupt pins stream validation at a rank: garbage, a truncated
// stream, a flipped tail byte, a stream of the other rank, and headers
// whose extent product overflows int all fail cleanly.
func corrupt(t *testing.T, shape, other []int) {
	rank := len(shape)
	eachLane(t, func(t *testing.T, l lane) {
		if _, err := l.dec([]byte{9, 9, 9}, rank); err == nil {
			t.Fatal("garbage must error")
		}
		data := sample(shape, func(z, y, x int) float64 { return float64(z + y - x) })
		stream, _ := roundtrip(t, l, shape, data, 1e-3)
		if _, err := l.dec(stream[:len(stream)/3], rank); err == nil {
			t.Fatal("truncated stream must error")
		}
		flipped := append([]byte(nil), stream...)
		flipped[len(flipped)-1] ^= 0xff
		if _, err := l.dec(flipped, rank); err == nil {
			t.Fatal("flipped tail byte must error")
		}
		if _, err := l.dec(stream, len(other)); err == nil {
			t.Fatalf("rank-%d stream accepted as rank %d", rank, len(other))
		}
		li := 0
		if l.width == 4 {
			li = 1
		}
		for _, ext := range []uint32{1 << 31, math.MaxUint32} {
			if _, err := l.dec(hostileHeader(rank, li, ext), rank); err == nil {
				t.Fatalf("header with extents %d accepted", ext)
			}
		}
	})
}

func TestDecompressCorrupt(t *testing.T) { corrupt(t, []int{8, 8}, []int{4, 4, 4}) }

func TestDecompress3DCorrupt(t *testing.T) { corrupt(t, []int{4, 4, 4}, []int{8, 8}) }

// TestQuickBoundProperty is the bound property on random shapes at
// ranks 2 and 3, smooth and rough fields, and bounds 1e-1 .. 1e-6.
func TestQuickBoundProperty(t *testing.T) {
	for _, rank := range []int{2, 3} {
		maxExt := map[int]int{2: 30, 3: 10}[rank]
		t.Run(fmt.Sprintf("%dd", rank), func(t *testing.T) {
			eachLane(t, func(t *testing.T, l lane) {
				f := func(seed uint64, ebExp uint8, rough bool) bool {
					eb := math.Pow(10, -1-float64(ebExp%6))
					rng := xrand.New(seed)
					shape := make([]int, rank)
					for k := range shape {
						shape[k] = 1 + rng.Intn(maxExt)
					}
					fr := 1 + rng.Float64()*10
					data := sample(shape, func(z, y, x int) float64 {
						if rough {
							return rng.NormFloat64() * 10
						}
						return math.Sin(float64(z+y)/fr) + math.Cos(float64(x)/fr)
					})
					stream, err := l.enc(shape, data, eb)
					if err != nil {
						return false
					}
					dec, err := l.dec(stream, rank)
					return err == nil && len(dec) == len(data) && maxErr(l.seen(data), dec) <= eb*(1+1e-12)
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestLane32RoundTrip pins the float32 lane bound strictly on float32
// values across bounds and clipped-edge shapes at both ranks: the
// half-tolerance coded path plus the f32-representability argument
// means no widened slack is needed.
func TestLane32RoundTrip(t *testing.T) {
	for _, shape := range [][]int{{64, 64}, {17, 33}, {1, 40}, {3, 5}, {9, 10, 11}, {1, 6, 13}} {
		for _, eb := range []float64{1e-1, 1e-3, 1e-5} {
			roundtrip(t, f32, shape, noise(shape, uint64(11*shape[0]+shape[1]), 1), eb)
		}
	}
}

// TestLane32RawPath drives the raw-block fallback: a tolerance finer
// than the doubled fixed-point floor stores float32 samples exactly.
func TestLane32RawPath(t *testing.T) {
	for _, shape := range [][]int{{16, 16}, {4, 8, 8}} {
		data := noise(shape, 5, 1)
		for i := range data {
			data[i] += 1e6
		}
		want := f32.seen(data)
		_, dec := roundtrip(t, f32, shape, data, 1e-12)
		for i := range want {
			if want[i] != dec[i] {
				t.Fatalf("%v sample %d: %v != %v (expected raw exact)", shape, i, want[i], dec[i])
			}
		}
	}
}

// TestLane32NonFinite pins that non-finite blocks bypass the transform
// and survive exactly through 4-byte raw storage.
func TestLane32NonFinite(t *testing.T) {
	for _, shape := range [][]int{{12, 12}, {5, 6, 7}} {
		data := noise(shape, 7, 1)
		data[0], data[50] = math.NaN(), math.Inf(-1)
		_, dec := roundtrip(t, f32, shape, data, 1e-2)
		if !math.IsNaN(dec[0]) || !math.IsInf(dec[50], -1) {
			t.Fatalf("%v: special values lost: %v %v", shape, dec[0], dec[50])
		}
	}
}

func TestRoundtrip3DNonFinite(t *testing.T) {
	shape := []int{5, 5, 5}
	eachLane(t, func(t *testing.T, l lane) {
		data := make([]float64, 125)
		data[(1*5+2)*5+3], data[0] = math.NaN(), math.Inf(1)
		_, dec := roundtrip(t, l, shape, data, 1e-3)
		if !math.IsNaN(dec[(1*5+2)*5+3]) || !math.IsInf(dec[0], 1) {
			t.Fatal("non-finite values not preserved raw")
		}
	})
}

// TestLane32ThroughRegistry pins that RunField runs a float32 field
// through the codec's own float32 lane, with BoundOK.
func TestLane32ThroughRegistry(t *testing.T) {
	for _, c := range []compress.FieldCompressor{Compressor{}, Compressor{Rank: 3}} {
		shape := []int{50, 50}
		if c.Ranks()[0] == 3 {
			shape = []int{12, 14, 15}
		}
		f, err := field.FromData(shape, convert[float32](noise(shape, 13, 1)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := compress.RunField(c, f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BoundOK || res.MaxAbsError > 1e-3 {
			t.Fatalf("%s: native lane bound violated: %+v", c.Name(), res)
		}
		if res.Ratio <= 1 {
			t.Fatalf("%s: expected compression, got ratio %v", c.Name(), res.Ratio)
		}
	}
}

// TestLane32Corrupt pins lane validation: a stream of one lane is
// rejected by the other lane's decoder at both ranks.
func TestLane32Corrupt(t *testing.T) {
	for _, shape := range [][]int{{16, 16}, {5, 6, 7}} {
		data := noise(shape, 3, 1)
		for _, pair := range [][2]lane{{f64, f32}, {f32, f64}} {
			stream, _ := roundtrip(t, pair[0], shape, data, 1e-3)
			if _, err := pair[1].dec(stream, len(shape)); err == nil {
				t.Fatalf("%v: %s stream accepted by the %s lane", shape, pair[0].name, pair[1].name)
			}
		}
	}
}
