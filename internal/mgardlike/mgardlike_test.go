package mgardlike

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/huffman"
	"lossycorr/internal/lossless"
	"lossycorr/internal/xrand"
)

// fromFunc builds a rows×cols field by evaluating fn in row-major order.
func fromFunc(rows, cols int, fn func(r, c int) float64) *field.Field {
	f := field.New(rows, cols)
	for i := range f.Data {
		f.Data[i] = fn(i/cols, i%cols)
	}
	return f
}

func roundtrip(t *testing.T, g *field.Field, eb float64) *field.Field {
	t.Helper()
	data, err := (Compressor{}).CompressField(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := (Compressor{}).DecompressField(data)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.SameShape(g) {
		t.Fatalf("shape changed")
	}
	maxErr, err := g.MaxAbsDiff(dec)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > eb*(1+1e-12) {
		t.Fatalf("bound violated: maxErr %v > eb %v", maxErr, eb)
	}
	return dec
}

func TestName(t *testing.T) {
	if (Compressor{}).Name() != "mgard-like" {
		t.Fatal("name changed")
	}
	if r := (Compressor{}).Ranks(); len(r) != 1 || r[0] != 2 {
		t.Fatalf("ranks %v", r)
	}
	if (Compressor{Rank: 3}).Name() != "mgard-like-3d" {
		t.Fatal("3-D name changed")
	}
	if r := (Compressor{Rank: 3}).Ranks(); len(r) != 1 || r[0] != 3 {
		t.Fatalf("3-D ranks %v", r)
	}
}

func TestNumLevels(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{1, 1}, 0},
		{[]int{2, 2}, 0},
		{[]int{3, 3}, 1},
		{[]int{4, 4}, 1},
		{[]int{5, 5}, 2},
		{[]int{64, 64}, 5},
		{[]int{64, 128}, 6},
		{[]int{1, 1, 1}, 0},
		{[]int{5, 2, 3}, 2},
		{[]int{3, 64, 9}, 5},
		{[]int{1, 2, 129}, 7},
	}
	for _, c := range cases {
		if _, got := dims(c.shape); got != c.want {
			t.Fatalf("levels of %v = %d want %d", c.shape, got, c.want)
		}
	}
}

func TestForEachLevelNodePartition(t *testing.T) {
	// across all levels plus the coarsest lattice, every node must be
	// visited exactly once
	for _, shape := range [][]int{{13, 21}, {5, 13, 9}, {17, 1, 6}} {
		d, levels := dims(shape)
		seen := make([]int, d[0]*d[1]*d[2])
		walk(make([]float64, len(seen)), d, levels, func(i int, _ float64) { seen[i]++ })
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%v: node %d visited %d times", shape, i, n)
			}
		}
	}
}

func TestInterpolateExactOnBilinear(t *testing.T) {
	// a bilinear (trilinear at rank 3) field is reproduced exactly at
	// every node below the coarsest lattice, whose predictor is zero
	for _, shape := range [][]int{{17, 17}, {9, 9, 9}} {
		d, levels := dims(shape)
		a := make([]float64, d[0]*d[1]*d[2])
		for i := range a {
			z, y, x := i/(d[1]*d[2]), i/d[2]%d[1], i%d[2]
			a[i] = 2 + 0.75*float64(z) + 0.5*float64(y) + 0.25*float64(x)
		}
		coarse := 0
		walk(a, d, levels, func(i int, pred float64) {
			if pred == 0 {
				coarse++
			} else if math.Abs(pred-a[i]) > 1e-12 {
				t.Fatalf("%v node %d: %v want %v", shape, i, pred, a[i])
			}
		})
		if want := 1 << len(shape); coarse != want {
			t.Fatalf("%v: %d zero-predictor nodes, want the %d coarse corners", shape, coarse, want)
		}
	}
}

func TestRoundtripSmooth(t *testing.T) {
	g := fromFunc(40, 56, func(r, c int) float64 {
		return math.Sin(float64(r)/8) * math.Cos(float64(c)/6)
	})
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		roundtrip(t, g, eb)
	}
}

func TestRoundtripNoise(t *testing.T) {
	rng := xrand.New(9)
	g := fromFunc(27, 35, func(r, c int) float64 { return rng.NormFloat64() * 20 })
	roundtrip(t, g, 1e-4)
}

func TestOddSizes(t *testing.T) {
	rng := xrand.New(10)
	for _, sz := range [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {3, 5}, {16, 16}, {17, 33}} {
		g := fromFunc(sz[0], sz[1], func(r, c int) float64 { return rng.NormFloat64() })
		roundtrip(t, g, 1e-3)
	}
}

func TestExtremeValues(t *testing.T) {
	g, _ := field.FromData([]int{2, 4}, []float64{1e300, -1e300, 1e-300, 0, 5, -5, 1e18, -1e-18})
	roundtrip(t, g, 1e-6)
}

func TestEmptyAndBadBound(t *testing.T) {
	if _, err := (Compressor{}).CompressField(field.New(0, 0), 1e-3); err == nil {
		t.Fatal("empty field must error")
	}
	if _, err := (Compressor{}).CompressField(field.New(4, 4), 0); err == nil {
		t.Fatal("eb=0 must error")
	}
	if _, err := (Compressor{}).CompressField(field.New(4, 4, 4), 1e-3); err == nil {
		t.Fatal("rank-3 field must error")
	}
}

func TestSmoothBeatsNoise(t *testing.T) {
	smooth, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(12)
	noise := fromFunc(64, 64, func(r, cc int) float64 { return rng.NormFloat64() })
	ds, err := (Compressor{}).CompressField(smooth, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := (Compressor{}).CompressField(noise, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) >= len(dn) {
		t.Fatalf("smooth (%d B) not smaller than noise (%d B)", len(ds), len(dn))
	}
}

func TestRatioIncreasesWithBound(t *testing.T) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, eb := range []float64{1e-6, 1e-4, 1e-2} {
		d, err := (Compressor{}).CompressField(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(d))
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Fatalf("sizes not decreasing: %v", sizes)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, err := (Compressor{}).DecompressField([]byte{3, 1, 4}); err == nil {
		t.Fatal("garbage must error")
	}
	data, err := (Compressor{}).CompressField(fromFunc(9, 9, func(r, cc int) float64 { return float64(r * cc) }), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Compressor{}).DecompressField(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestQuickBoundProperty(t *testing.T) {
	// both ranks on both lanes; the float32 lane's bound is checked on
	// the float32 samples it reconstructs
	f := func(seed uint64, ebExp uint8, rough, vol, lane32 bool) bool {
		eb := math.Pow(10, -1-float64(ebExp%6))
		rng := xrand.New(seed)
		var c compress.FieldCompressor = Compressor{}
		shape := []int{1 + rng.Intn(34), 1 + rng.Intn(34)}
		if vol {
			c, shape = Compressor{Rank: 3}, []int{1 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(12)}
		}
		g := field.New(shape...)
		fr := 1 + rng.Float64()*10
		for i := range g.Data {
			if rough {
				g.Data[i] = rng.NormFloat64() * 10
			} else {
				g.Data[i] = math.Sin(float64(i/shape[len(shape)-1])/fr) + math.Cos(float64(i%shape[len(shape)-1])/fr)
			}
		}
		var res compress.Result
		var err error
		if lane32 {
			res, err = compress.RunField(c, g.Narrow(), eb)
		} else {
			res, err = compress.RunField(c, g, eb)
		}
		return err == nil && res.BoundOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressCorruptSymbolCount feeds a well-formed stream whose
// header claims 8192×8192 nodes but whose Huffman payload holds one
// symbol: the decoder must reject it before allocating the claimed
// 512 MiB reconstruction.
func TestDecompressCorruptSymbolCount(t *testing.T) {
	raw := compress.AppendHeader(nil, magic[0][0], []int{8192, 8192}, 1e-3)
	raw = binary.LittleEndian.AppendUint32(raw, 0) // no exact values
	raw = append(raw, huffman.AppendEncode(nil, []uint16{7})...)
	data, err := lossless.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = (Compressor{}).DecompressField(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte stream", d, len(data))
	}
}
