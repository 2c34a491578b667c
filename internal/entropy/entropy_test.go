package entropy

import (
	"math"
	"testing"

	"lossycorr/internal/gaussian"
	"lossycorr/internal/szlike"
	"lossycorr/internal/xrand"
)

func TestQuantizedEntropyKnownDistributions(t *testing.T) {
	// At eb = 0.5 the bins are 1 wide, so each integer is its own code.
	for _, c := range []struct {
		data []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 1, 2, 3, 0, 1, 2, 3}, 2}, // uniform over 4 codes
		{[]float64{0, 0, 1, 2}, 1.5},           // p = (1/2, 1/4, 1/4)
	} {
		h, err := QuantizedEntropy(c.data, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-c.want) > 1e-12 {
			t.Fatalf("entropy of %v = %v, want %v", c.data, h, c.want)
		}
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

// TestQuantizedEntropyDeterministic pins the entropy as a pure function
// of its inputs: 200 calls on one field give one bit pattern. Summed in
// map-iteration order, the same call gave dozens of patterns.
func TestQuantizedEntropyDeterministic(t *testing.T) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := QuantizedEntropy(f.Data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		h, err := QuantizedEntropy(f.Data, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(h) != math.Float64bits(want) {
			t.Fatalf("call %d: entropy %#x, first call %#x", i, math.Float64bits(h), math.Float64bits(want))
		}
	}
}

// TestQuantizedEntropyRejectsNonFiniteBound pins that an error bound
// the codecs reject (NaN, ±Inf, zero, negative) is an error here too,
// not an entropy of 0.
func TestQuantizedEntropyRejectsNonFiniteBound(t *testing.T) {
	data := []float64{0, 1, 2, 3}
	for _, eb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-3} {
		if h, err := QuantizedEntropy(data, eb); err == nil {
			t.Fatalf("eb %v: entropy %v, want an error", eb, h)
		}
	}
}
