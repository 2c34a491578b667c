package variogram

// Bit digest of the spectral engine: SHA-256 over Float64bits(Gamma)
// and N of every bin, for ranks 1–3 (odd extents, a unit axis), both
// element lanes, workers 1 and 4, in RAM and sharded through
// fftScanReader at budgets that force three or more slabs. The constant
// was recorded before the transforms were pruned and the fold became
// one sweep; it pins that the faster schedule adds the same terms in
// the same order. Never regenerate it to make a change pass: a
// differing digest means the engine's arithmetic changed.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"lossycorr/internal/cpufeat"
	"lossycorr/internal/field"
)

const digestSpectral = "7d5c58bfd0d5fff6dff478100eaeda9db7e15fc8f87f319e6a402d482927d3ac"

// spectralDigestCases are the digest's shapes and lag cutoffs, each
// with the axis-0 shard extent its streamed run is budgeted to.
var spectralDigestCases = []struct {
	shape         []int
	maxLag, shard int
}{
	{[]int{300}, 40, 75},
	{[]int{301}, 0, 70},
	{[]int{37, 53}, 0, 9},
	{[]int{96, 40}, 13, 30},
	{[]int{64, 64}, 0, 16},
	{[]int{17, 19, 23}, 0, 5},
	{[]int{24, 24, 24}, 7, 8},
	{[]int{20, 1, 30}, 6, 6},
}

func hashEmpirical(h hash.Hash, e *Empirical) {
	var b [8]byte
	for i := range e.Gamma {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Gamma[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(e.N[i]))
		h.Write(b[:])
	}
}

// TestSpectralBitDigest checks the digest on each FFT line path: the
// lockstep groups where cpufeat.AVX2 is set, then the per-line path
// with it cleared.
func TestSpectralBitDigest(t *testing.T) {
	avx := cpufeat.AVX2
	defer func() { cpufeat.AVX2 = avx }()
	if avx {
		t.Run("lockstep", spectralBitDigest)
	}
	cpufeat.AVX2 = false
	t.Run("perline", spectralBitDigest)
}

func spectralBitDigest(t *testing.T) {
	h := sha256.New()
	for ci, tc := range spectralDigestCases {
		f64 := randomField(tc.shape, uint64(3100+ci))
		f32, _ := randomField32(tc.shape, uint64(3200+ci))
		nb := Options{MaxLag: tc.maxLag}.withDefaults(tc.shape).MaxLag
		if slabs := (tc.shape[0] + tc.shard - 1) / tc.shard; slabs < 3 {
			t.Fatalf("shape %v: shard %d gives %d slabs, want >= 3", tc.shape, tc.shard, slabs)
		}
		so := field.StreamOptions{BudgetBytes: shardBudget(t, tc.shape, nb, tc.shard)}
		tr64 := writeTempField(t, f64.WriteBinary)
		tr32 := writeTempField(t, f32.WriteBinary)
		for _, workers := range []int{1, 4} {
			o := Options{FFT: true, MaxLag: tc.maxLag, Workers: workers}
			for _, run := range []struct {
				name string
				src  func() (*Empirical, error)
			}{
				{"f64/ram", func() (*Empirical, error) { return Compute(bg, in64(f64), o) }},
				{"f32/ram", func() (*Empirical, error) { return Compute(bg, in32(f32), o) }},
				{"f64/shards", func() (*Empirical, error) { return Compute(bg, onDisk(tr64, so), o) }},
				{"f32/shards", func() (*Empirical, error) { return Compute(bg, onDisk(tr32, so), o) }},
			} {
				e, err := run.src()
				if err != nil {
					t.Fatalf("shape %v %s workers %d: %v", tc.shape, run.name, workers, err)
				}
				fmt.Fprintf(h, "%v/%s/%d:", tc.shape, run.name, workers)
				hashEmpirical(h, e)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digestSpectral {
		t.Errorf("spectral digest %s, want %s", got, digestSpectral)
	}
}
