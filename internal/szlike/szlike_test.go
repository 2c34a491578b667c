package szlike

// Codec tests run as per-(rank, lane) tables: every behaviour is
// checked on both element lanes through the one generic encoder and
// decoder, and tests named …3D run the rank-3 rows of the behaviour
// whose rank-2 rows carry the plain name.

import (
	"encoding/binary"
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
	enc   func(shape []int, data []float64, mode PredictorMode, eb float64) ([]byte, error)
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
		enc: func(shape []int, data []float64, mode PredictorMode, eb float64) ([]byte, error) {
			return encode(shape, convert[T](data), len(shape), mode, eb)
		},
		dec: func(stream []byte, rank int) ([]float64, error) {
			f, err := decode[T](stream, rank)
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
// bound against the samples the lane compressed, and returns the stream
// and the reconstruction.
func roundtrip(t *testing.T, l lane, shape []int, data []float64, mode PredictorMode, eb float64) ([]byte, []float64) {
	t.Helper()
	stream, err := l.enc(shape, data, mode, eb)
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
	if m := maxErr(l.seen(data), dec); m > eb*(1+1e-12) {
		t.Fatalf("shape %v: bound violated: maxErr %v > eb %v", shape, m, eb)
	}
	return stream, dec
}

func TestName(t *testing.T) {
	if (Compressor{}).Name() != "sz-like" {
		t.Fatal("name changed")
	}
	if (Compressor{Mode: PredictorLorenzoOnly}).Name() != "sz-like-lorenzo" {
		t.Fatal("lorenzo name changed")
	}
	if (Compressor{Mode: PredictorRegressionOnly}).Name() != "sz-like-regression" {
		t.Fatal("regression name changed")
	}
	if r := (Compressor{}).Ranks(); len(r) != 1 || r[0] != 2 {
		t.Fatalf("ranks %v", r)
	}
}

func TestName3D(t *testing.T) {
	if (Compressor{Rank: 3}).Name() != "sz-like-3d" {
		t.Fatal("name changed")
	}
	if r := (Compressor{Rank: 3}).Ranks(); len(r) != 1 || r[0] != 3 {
		t.Fatalf("ranks %v", r)
	}
}

func TestPredictorModesRoundtrip(t *testing.T) {
	shape := []int{48, 48}
	data := gaussianField(t, shape, 8, 21)
	eachLane(t, func(t *testing.T, l lane) {
		sizes := map[PredictorMode]int{}
		for _, mode := range []PredictorMode{PredictorAuto, PredictorLorenzoOnly, PredictorRegressionOnly} {
			stream, _ := roundtrip(t, l, shape, data, mode, 1e-3)
			sizes[mode] = len(stream)
		}
		// auto must be at least as good as the best single predictor, up
		// to the one-byte-per-block mode overhead
		best := min(sizes[PredictorLorenzoOnly], sizes[PredictorRegressionOnly])
		if sizes[PredictorAuto] > best+best/10 {
			t.Fatalf("auto (%d B) much worse than best single predictor (%d B)", sizes[PredictorAuto], best)
		}
	})
}

func TestRoundtripSmooth(t *testing.T) {
	shape := []int{50, 70}
	data := sample(shape, func(_, r, c int) float64 { return math.Sin(float64(r)/9) + math.Cos(float64(c)/11) })
	eachLane(t, func(t *testing.T, l lane) {
		for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
			roundtrip(t, l, shape, data, PredictorAuto, eb)
		}
	})
}

func TestRoundtrip3DSmooth(t *testing.T) {
	shape := []int{12, 20, 16}
	data := sample(shape, func(z, y, x int) float64 {
		return math.Sin(float64(z)/3) + math.Cos(float64(y)/5) + float64(x)*0.1
	})
	eachLane(t, func(t *testing.T, l lane) {
		for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
			roundtrip(t, l, shape, data, PredictorAuto, eb)
		}
	})
}

func TestRoundtripNoise(t *testing.T) {
	shape := []int{33, 47}
	data := noise(shape, 1, 100)
	eachLane(t, func(t *testing.T, l lane) { roundtrip(t, l, shape, data, PredictorAuto, 1e-4) })
}

func TestRoundtrip3DNoise(t *testing.T) {
	shape := []int{9, 11, 13}
	data := noise(shape, 4, 20)
	eachLane(t, func(t *testing.T, l lane) { roundtrip(t, l, shape, data, PredictorAuto, 1e-4) })
}

func TestRoundtrip3DGaussianField(t *testing.T) {
	shape := []int{16, 16, 16}
	data := gaussianField(t, shape, 4, 2)
	eachLane(t, func(t *testing.T, l lane) { roundtrip(t, l, shape, data, PredictorAuto, 1e-3) })
}

func TestRoundtripConstant(t *testing.T) {
	shape := []int{20, 20}
	data := sample(shape, func(_, _, _ int) float64 { return 3.75 })
	eachLane(t, func(t *testing.T, l lane) {
		stream, _ := roundtrip(t, l, shape, data, PredictorAuto, 1e-6)
		if ratio := float64(l.width*len(data)) / float64(len(stream)); ratio < 20 {
			t.Fatalf("constant field ratio only %.1f", ratio)
		}
	})
}

// oddSizes round-trips noise over clipped edge blocks and extent-1
// axes.
func oddSizes(t *testing.T, shapes [][]int) {
	eachLane(t, func(t *testing.T, l lane) {
		for i, shape := range shapes {
			roundtrip(t, l, shape, noise(shape, uint64(i), 1), PredictorAuto, 1e-3)
		}
	})
}

func TestOddSizes(t *testing.T) {
	oddSizes(t, [][]int{{1, 1}, {1, 40}, {40, 1}, {3, 5}, {16, 16}, {17, 33}, {15, 16}})
}

func TestOddSizes3D(t *testing.T) {
	oddSizes(t, [][]int{{1, 1, 1}, {1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {3, 5, 7}, {9, 10, 11}})
}

// errorsAt pins the argument errors of a rank: an empty field, a
// non-positive bound, and a field of another rank.
func errorsAt(t *testing.T, c compress.FieldCompressor, empty, ok, wrongRank []int) {
	eachLane(t, func(t *testing.T, l lane) {
		if _, err := l.enc(empty, nil, PredictorAuto, 1e-3); err == nil {
			t.Fatal("empty field must error")
		}
		data := noise(ok, 1, 1)
		for _, eb := range []float64{0, -1} {
			if _, err := l.enc(ok, data, PredictorAuto, eb); err == nil {
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

func TestExtremeValues(t *testing.T) {
	shape := []int{2, 4}
	eachLane(t, func(t *testing.T, l lane) {
		big, tiny := 1e300, 1e-300
		if l.width == 4 {
			big, tiny = 1e38, 1e-38
		}
		roundtrip(t, l, shape, []float64{big, -big, tiny, 0, 5, -5, 1e18, -1e-18}, PredictorAuto, 1e-6)
	})
}

// smoothBeatsNoise checks a correlated field compresses smaller than
// white noise of the same shape.
func smoothBeatsNoise(t *testing.T, shape []int, rang float64, seed uint64) {
	smooth := gaussianField(t, shape, rang, seed)
	rough := noise(shape, seed, 1)
	eachLane(t, func(t *testing.T, l lane) {
		ds, _ := roundtrip(t, l, shape, smooth, PredictorAuto, 1e-3)
		dn, _ := roundtrip(t, l, shape, rough, PredictorAuto, 1e-3)
		if len(ds) >= len(dn) {
			t.Fatalf("smooth (%d B) not smaller than noise (%d B)", len(ds), len(dn))
		}
	})
}

func TestSmoothBeatsNoise(t *testing.T) { smoothBeatsNoise(t, []int{64, 64}, 16, 3) }

func TestSmoother3DCompressesBetter(t *testing.T) { smoothBeatsNoise(t, []int{16, 16, 16}, 6, 7) }

func TestRatioIncreasesWithBound(t *testing.T) {
	shape := []int{64, 64}
	data := gaussianField(t, shape, 8, 4)
	eachLane(t, func(t *testing.T, l lane) {
		var sizes []int
		for _, eb := range []float64{1e-6, 1e-4, 1e-2} {
			stream, _ := roundtrip(t, l, shape, data, PredictorAuto, eb)
			sizes = append(sizes, len(stream))
		}
		if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
			t.Fatalf("sizes not decreasing with bound: %v", sizes)
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
// stream, a stream of the other rank, and headers whose extent product
// overflows int all fail cleanly.
func corrupt(t *testing.T, shape, other []int) {
	rank := len(shape)
	eachLane(t, func(t *testing.T, l lane) {
		if _, err := l.dec([]byte{1, 2, 3}, rank); err == nil {
			t.Fatal("garbage must error")
		}
		data := sample(shape, func(z, y, x int) float64 { return float64(z + y + x) })
		stream, _ := roundtrip(t, l, shape, data, PredictorAuto, 1e-3)
		if _, err := l.dec(stream[:len(stream)/2], rank); err == nil {
			t.Fatal("truncated stream must error")
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

// quickBound is the bound property on random shapes (up to maxExt per
// axis), smooth and rough fields, and bounds 1e-1 .. 1e-(nb).
func quickBound(t *testing.T, rank, maxExt, nb, count int) {
	eachLane(t, func(t *testing.T, l lane) {
		f := func(seed uint64, ebExp uint8, rough bool) bool {
			eb := math.Pow(10, -1-float64(int(ebExp)%nb))
			rng := xrand.New(seed)
			shape := make([]int, rank)
			for k := range shape {
				shape[k] = 1 + rng.Intn(maxExt)
			}
			fr := 1 + rng.Float64()*5
			data := sample(shape, func(z, y, x int) float64 {
				if rough {
					return rng.NormFloat64() * 10
				}
				return math.Sin(float64(z+y)/fr) * math.Cos(float64(x)/fr)
			})
			stream, err := l.enc(shape, data, PredictorAuto, eb)
			if err != nil {
				return false
			}
			dec, err := l.dec(stream, rank)
			return err == nil && len(dec) == len(data) && maxErr(l.seen(data), dec) <= eb*(1+1e-12)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQuickBoundProperty(t *testing.T) { quickBound(t, 2, 40, 6, 60) }

func TestQuickBoundProperty3D(t *testing.T) { quickBound(t, 3, 10, 5, 40) }

// fitOf pads data and fits the hyperplane through the whole field as
// one block, on lane T.
func fitOf[T field.Elem](shape []int, data []float64) [4]float64 {
	g := newGeom(shape)
	src := make([]T, g.padded)
	interior(&g, convert[T](data), src, true)
	var n [3]int
	copy(n[:], g.dims[:])
	return fit(src, &g, [3]int{}, n)
}

func checkFit(t *testing.T, shape []int, want [4]float64) {
	data := sample(shape, func(z, y, x int) float64 {
		return want[0] + want[1]*float64(z) + want[2]*float64(y) + want[3]*float64(x)
	})
	for lane, b := range [][4]float64{fitOf[float64](shape, data), fitOf[float32](shape, data)} {
		for k := range b {
			if math.Abs(b[k]-want[k]) > 1e-5 {
				t.Fatalf("%s: coefficients %v want %v", lanes[lane].name, b, want)
			}
		}
	}
}

func TestRegressionCoeffsFitPlane(t *testing.T) {
	checkFit(t, []int{16, 16}, [4]float64{2, 0, 0.5, -0.25})
}

func TestHyperplaneCoeffs(t *testing.T) {
	checkFit(t, []int{8, 8, 8}, [4]float64{4, -0.5, 0.25, 2})
}

// checkLorenzo pins the Lorenzo predictor exact on an affine field away
// from the borders, on both lanes.
func checkLorenzo(t *testing.T, shape []int, fn func(z, y, x int) float64) {
	data := sample(shape, fn)
	g := newGeom(shape)
	p64, p32 := make([]float64, g.padded), make([]float32, g.padded)
	interior(&g, data, p64, true)
	interior(&g, convert[float32](data), p32, true)
	for z := min(1, g.dims[0]-1); z < g.dims[0]; z++ {
		for y := 1; y < g.dims[1]; y++ {
			for x := 1; x < g.dims[2]; x++ {
				i := g.at(z, y, x)
				want := fn(z, y, x)
				if p := lorenzo(p64, &g, i); math.Abs(p-want) > 1e-10 {
					t.Fatalf("f64 lorenzo at (%d,%d,%d): %v want %v", z, y, x, p, want)
				}
				if p := lorenzo(p32, &g, i); math.Abs(p-want) > 1e-10 {
					t.Fatalf("f32 lorenzo at (%d,%d,%d): %v want %v", z, y, x, p, want)
				}
			}
		}
	}
}

func TestLorenzoPredictExactOnPlane(t *testing.T) {
	checkLorenzo(t, []int{8, 8}, func(_, r, c int) float64 { return 1 + 3*float64(r) + 7*float64(c) })
}

func TestLorenzo3DExactOnHyperplane(t *testing.T) {
	checkLorenzo(t, []int{6, 6, 6}, func(z, y, x int) float64 {
		return 1 + 2*float64(z) - 3*float64(y) + 0.5*float64(x)
	})
}

// TestLane32RoundTrip pins the float32 lane: the bound holds strictly on
// float32 values for every predictor mode at rank 2 and for rank 3 — no
// widened slack term, because the post-narrow guard escapes any sample
// whose narrow rounding would exceed it.
func TestLane32RoundTrip(t *testing.T) {
	for _, shape := range [][]int{{61, 77}, {9, 10, 11}} {
		data := noise(shape, 7, 1)
		for _, mode := range []PredictorMode{PredictorAuto, PredictorLorenzoOnly, PredictorRegressionOnly} {
			for _, eb := range []float64{1e-1, 1e-3, 1e-5} {
				_, dec := roundtrip(t, f32, shape, data, mode, eb)
				if m := maxErr(f32.seen(data), dec); m > eb {
					t.Fatalf("%v mode %d: float32 lane bound violated: %g > %g", shape, mode, m, eb)
				}
			}
		}
	}
}

// TestLane32NarrowGuard drives the post-narrow escape: values around
// 1e7 with a bound of 1e-4 sit below half a float32 ulp (~0.6 at that
// magnitude), so nearly every sample must escape to exact storage —
// and the reconstruction is then bitwise exact.
func TestLane32NarrowGuard(t *testing.T) {
	for _, shape := range [][]int{{24, 24}, {6, 7, 8}} {
		data := noise(shape, 3, 1)
		for i := range data {
			data[i] += 1e7
		}
		want := f32.seen(data)
		_, dec := roundtrip(t, f32, shape, data, PredictorAuto, 1e-4)
		for i := range want {
			if want[i] != dec[i] {
				t.Fatalf("%v sample %d: %v != %v (expected exact escape)", shape, i, want[i], dec[i])
			}
		}
	}
}

// TestLane32NonFinite pins NaN/Inf handling: non-finite residuals
// escape, so special values survive the round trip.
func TestLane32NonFinite(t *testing.T) {
	for _, shape := range [][]int{{20, 20}, {5, 6, 7}} {
		data := noise(shape, 9, 1)
		data[5], data[37] = math.NaN(), math.Inf(1)
		_, dec := roundtrip(t, f32, shape, data, PredictorAuto, 1e-3)
		if !math.IsNaN(dec[5]) || !math.IsInf(dec[37], 1) {
			t.Fatalf("%v: special values lost: %v %v", shape, dec[5], dec[37])
		}
	}
}

// TestLane32ThroughRegistry pins that RunField runs a float32 field
// through the codec's own float32 lane, with BoundOK.
func TestLane32ThroughRegistry(t *testing.T) {
	for _, c := range []compress.FieldCompressor{Compressor{}, Compressor{Rank: 3}} {
		shape := []int{50, 50}
		if c.Ranks()[0] == 3 {
			shape = []int{12, 14, 15}
		}
		f, err := field.FromData(shape, convert[float32](noise(shape, 11, 1)))
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
		if _, err := c.CompressField32(field.New32(4, 4, 4, 4), 1e-3); err == nil {
			t.Fatalf("%s: rank-4 field accepted", c.Name())
		}
	}
}

// TestLane32Corrupt pins lane validation: a stream of one lane is
// rejected by the other lane's decoder at both ranks.
func TestLane32Corrupt(t *testing.T) {
	for _, shape := range [][]int{{16, 16}, {5, 6, 7}} {
		data := noise(shape, 1, 1)
		for _, pair := range [][2]lane{{f64, f32}, {f32, f64}} {
			stream, _ := roundtrip(t, pair[0], shape, data, PredictorAuto, 1e-3)
			if _, err := pair[1].dec(stream, len(shape)); err == nil {
				t.Fatalf("%v: %s stream accepted by the %s lane", shape, pair[0].name, pair[1].name)
			}
		}
	}
}
