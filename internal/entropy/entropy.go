// Package entropy provides Shannon-entropy computations and the
// entropy-based compression-ratio estimator of the paper's related work
// (Tao et al., TPDS 2019 — automatic online selection between SZ and
// ZFP): quantize the field at the error bound, compute the entropy of
// the quantization codes, and bound the achievable ratio by
// bits-per-value. It works on a flat value slice, so any field rank
// applies. The paper positions its
// correlation statistics as a compressor-independent alternative to
// exactly this estimator, so having both in one library allows direct
// comparison.
package entropy

import (
	"fmt"
	"math"
)

// Shannon returns the empirical Shannon entropy of the symbol stream in
// bits per symbol (0 for empty or single-symbol streams).
func Shannon(symbols []uint16) float64 {
	if len(symbols) == 0 {
		return 0
	}
	freq := make(map[uint16]int, 256)
	for _, s := range symbols {
		freq[s]++
	}
	n := float64(len(symbols))
	var h float64
	for _, c := range freq {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// ShannonBytes is Shannon over a byte stream.
func ShannonBytes(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	n := float64(len(data))
	var h float64
	for _, c := range freq {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// quantize maps a value to its 2·eb bin index, clamped into int32 so
// pathological values cannot overflow the code space.
func quantize(v, eb float64) int32 {
	c := math.Round(v / (2 * eb))
	switch {
	case c > math.MaxInt32:
		return math.MaxInt32
	case c < math.MinInt32:
		return math.MinInt32
	}
	return int32(c)
}

// QuantizedEntropy returns the Shannon entropy (bits per value) of the
// values quantized into 2·eb bins — the information content a lossy
// compressor at bound eb must represent, up to its prediction skill.
func QuantizedEntropy(data []float64, eb float64) (float64, error) {
	if eb <= 0 {
		return 0, fmt.Errorf("entropy: non-positive error bound %v", eb)
	}
	if len(data) == 0 {
		return 0, nil
	}
	freq := make(map[int32]int, 1024)
	for _, v := range data {
		freq[quantize(v, eb)]++
	}
	n := float64(len(data))
	var h float64
	for _, c := range freq {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h, nil
}

// EstimateRatio converts a bits-per-value entropy into an upper-bound
// compression ratio for float64 data: 64 / max(h, ε). It ignores
// prediction (decorrelation) gains, so real predictive compressors can
// exceed it, but it tracks compressibility trends the way the related
// work uses it.
func EstimateRatio(bitsPerValue float64) float64 {
	const minBits = 1e-3 // floor: even a constant field needs headers
	if bitsPerValue < minBits {
		bitsPerValue = minBits
	}
	return 64 / bitsPerValue
}
