package fft_test

// Bit digests: SHA-256 over the output bits of the real transforms, the
// complex ND transforms, and the Gaussian samplers that run on them.
// The Gaussian constant was recorded before the transforms lost their
// float32 lane and, before that, its hand-written mirror; the
// retained-shape constants before the plan layer dropped the lengths no
// caller produces (the chirp-z plan for lengths with a prime factor
// above 7, the radix-7 factor, odd real last axes). So they pin that
// the one float64 implementation reproduces its historical bits. Never
// regenerate them to make a change pass: a differing digest means the
// transform arithmetic changed.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"lossycorr/internal/cpufeat"
	"lossycorr/internal/fft"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// retainedShapes covers the extents the callers produce: powers of two
// (the Gaussian samplers' NextPow2 embeddings) and even 5-smooth last
// axes (the variogram's FastLen padding), whose half-length is odd
// (10, 30, 50) or even (12, 20, 40), at ranks 1–3, with a unit axis.
var retainedShapes = [][]int{
	{30}, {64}, {12, 10}, {6, 20}, {16, 32}, {96, 50},
	{1, 40}, {2, 16, 12}, {24, 18, 10}, {8, 4, 16},
}

const (
	digestGaussian = "63e76af5422ed917fa38f31977fec49237054c2d7c88cdf2eab7d1f419393ef0"

	digestRealRetained    = "a4cd502bc65e1581301f0a5b6ed08b6ebe2d005741370188b27c678497d8e00e"
	digestComplexRetained = "9417be3c4e82b17b3e9f3f23938cb9c1f480fe5be1f88c3c39a58d9d309f5497"
)

func product(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashComplex(h hash.Hash, xs []complex128) {
	for _, v := range xs {
		hashFloats(h, []float64{real(v), imag(v)})
	}
}

// digestReal hashes the forward → |·|² → inverse chain.
func digestReal(t *testing.T, workers int) string {
	t.Helper()
	h := sha256.New()
	for s, dims := range retainedShapes {
		rng := xrand.New(uint64(100 + s))
		src := make([]float64, product(dims))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		spec := make([]complex128, fft.HalfLen(dims))
		if err := fft.ForwardRealND(src, dims, dims, spec, workers); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		hashComplex(h, spec)
		fft.AbsSq(spec)
		hashComplex(h, spec)
		out := make([]float64, len(src))
		if err := fft.InverseRealND(spec, dims, dims[0], out, workers); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		hashFloats(h, out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestComplexND(t *testing.T, workers int) string {
	t.Helper()
	h := sha256.New()
	for s, dims := range retainedShapes {
		rng := xrand.New(uint64(200 + s))
		x := make([]complex128, product(dims))
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if err := fft.ForwardND(x, dims, workers); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		hashComplex(h, x)
		if err := fft.InverseND(x, dims, workers); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		hashComplex(h, x)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestGaussianFields(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, p := range []gaussian.Params{
		{Rows: 40, Cols: 56, Range: 6, Seed: 3},
		{Rows: 24, Cols: 36, Range: 20, Sigma2: 2, Seed: 4},
	} {
		g, err := gaussian.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, g.Data)
	}
	m, err := gaussian.GenerateMulti(gaussian.MultiParams{Rows: 48, Cols: 40, Ranges: []float64{3, 12}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, m.Data)
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 10, Ny: 12, Nx: 14, Range: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, v.Data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestLaneBitDigest checks the digests on each line path: the lockstep
// groups where cpufeat.AVX2 is set, then the per-line path with it
// cleared.
func TestLaneBitDigest(t *testing.T) {
	avx := cpufeat.AVX2
	defer func() { cpufeat.AVX2 = avx }()
	if avx {
		t.Run("lockstep", laneBitDigest)
	}
	cpufeat.AVX2 = false
	t.Run("perline", laneBitDigest)
}

func laneBitDigest(t *testing.T) {
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest %s, want %s", name, got, want)
		}
	}
	for _, workers := range []int{1, 4} {
		check("real f64 retained", digestReal(t, workers), digestRealRetained)
		check("complex ND retained", digestComplexND(t, workers), digestComplexRetained)
	}
	check("gaussian", digestGaussianFields(t), digestGaussian)
}
