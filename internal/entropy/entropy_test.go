package entropy

import (
	"math"
	"testing"

	"lossycorr/internal/gaussian"
	"lossycorr/internal/szlike"
	"lossycorr/internal/xrand"
)

func TestShannonKnownDistributions(t *testing.T) {
	if h := Shannon(nil); h != 0 {
		t.Fatalf("empty entropy %v", h)
	}
	if h := Shannon([]uint16{5, 5, 5, 5}); h != 0 {
		t.Fatalf("constant entropy %v", h)
	}
	// uniform over 4 symbols: exactly 2 bits
	h := Shannon([]uint16{0, 1, 2, 3, 0, 1, 2, 3})
	if math.Abs(h-2) > 1e-12 {
		t.Fatalf("uniform-4 entropy %v want 2", h)
	}
	// p = (1/2, 1/4, 1/4): 1.5 bits
	h = Shannon([]uint16{0, 0, 1, 2})
	if math.Abs(h-1.5) > 1e-12 {
		t.Fatalf("skewed entropy %v want 1.5", h)
	}
}

func TestShannonBytes(t *testing.T) {
	if h := ShannonBytes(nil); h != 0 {
		t.Fatalf("empty %v", h)
	}
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	if h := ShannonBytes(data); math.Abs(h-8) > 1e-12 {
		t.Fatalf("uniform byte entropy %v want 8", h)
	}
}

func TestQuantizedEntropyConstantField(t *testing.T) {
	g := make([]float64, 16*16)
	for i := range g {
		g[i] = 3.5
	}
	h, err := QuantizedEntropy(g, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("constant field entropy %v", h)
	}
}

func TestQuantizedEntropyGrowsWithPrecision(t *testing.T) {
	rng := xrand.New(1)
	g := make([]float64, 64*64)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	hCoarse, err := QuantizedEntropy(g, 1e-1)
	if err != nil {
		t.Fatal(err)
	}
	hFine, err := QuantizedEntropy(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if hFine <= hCoarse {
		t.Fatalf("entropy not increasing with precision: %v vs %v", hCoarse, hFine)
	}
	if _, err := QuantizedEntropy(g, 0); err == nil {
		t.Fatal("expected error for eb=0")
	}
}

func TestEstimateRatio(t *testing.T) {
	if r := EstimateRatio(64); r != 1 {
		t.Fatalf("64-bit entropy ratio %v want 1", r)
	}
	if r := EstimateRatio(8); r != 8 {
		t.Fatalf("8-bit entropy ratio %v want 8", r)
	}
	if r := EstimateRatio(0); math.IsInf(r, 1) {
		t.Fatal("zero entropy must not give infinite ratio")
	}
}

func TestEntropyTracksCompressibility(t *testing.T) {
	// smoother fields (larger range) must have lower quantized entropy
	// and larger entropy-estimated ratio, tracking the actual sz-like
	// ratio ordering
	var entropies, actual []float64
	for _, rang := range []float64{2, 8, 32} {
		f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: rang, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		h, err := QuantizedEntropy(f.Data, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		entropies = append(entropies, h)
		c := szlike.Compressor{}
		data, err := c.CompressField(f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		actual = append(actual, float64(f.SizeBytes())/float64(len(data)))
	}
	// note: quantized entropy without decorrelation barely moves with
	// the range (the marginal distribution is N(0,1) regardless), so we
	// only require it not to contradict the ordering wildly; the real
	// compressors' predictive stages are what exploit correlation.
	if !(actual[0] < actual[1] && actual[1] < actual[2]) {
		t.Fatalf("actual ratios not ordered: %v", actual)
	}
	if entropies[2] > entropies[0]+1 {
		t.Fatalf("entropy strongly anti-ordered: %v", entropies)
	}
}
