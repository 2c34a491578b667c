package compress_test

// Codec golden digests: the compressed bytes and the decompressed bits
// of every registered codec, at ranks 2 and 3, on both element lanes,
// across error bounds and shapes with clipped edge blocks and extent-1
// axes, hashed per (codec, lane) cell. Compression ratio is the paper's
// y-axis, so the stream bytes are behaviour: a refactor of a codec must
// leave every hex below unchanged.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/szlike"
	"lossycorr/internal/xrand"
)

var goldenBounds = []float64{1e-9, 1e-5, 1e-3, 1e-1}

var goldenShapes = map[int][][]int{
	2: {{1, 1}, {5, 7}, {17, 33}, {1, 40}, {40, 1}, {31, 24}, {33, 47}},
	3: {{1, 1, 1}, {5, 7, 9}, {1, 8, 8}, {9, 1, 10}, {3, 12, 1}, {17, 9, 10}},
}

// goldenField is a deterministic smooth-plus-noise field whose amplitude
// cycles over {1, 1e6, 1e-3, 3e4} with the shape index (1e6 drives the
// zfp-like raw-block path at the finest bound), with an all-zero corner
// block on odd shape indices.
func goldenField(shape []int, idx int) *field.Field {
	f := field.New(shape...)
	rng := xrand.New(uint64(1000 + idx))
	amp := []float64{1, 1e6, 1e-3, 3e4}[idx%4]
	coord := make([]int, len(shape))
	for i := range f.Data {
		rem, corner, v := i, true, 0.0
		for k := len(shape) - 1; k >= 0; k-- {
			coord[k] = rem % shape[k]
			rem /= shape[k]
			corner = corner && coord[k] < 4
			v += math.Sin(0.37 * float64(k+1) * float64(coord[k]))
		}
		if corner && idx%2 == 1 {
			continue
		}
		f.Data[i] = amp * (v + 0.1*rng.NormFloat64())
	}
	return f
}

// goldenCodecs is every registered codec of a rank plus, at rank 2, the
// sz-like predictor ablations.
func goldenCodecs(rank int) []compress.FieldCompressor {
	cs := core.DefaultRegistry().AllFor(rank)
	if rank == 2 {
		cs = append(cs,
			szlike.Compressor{Mode: szlike.PredictorLorenzoOnly},
			szlike.Compressor{Mode: szlike.PredictorRegressionOnly})
	}
	return cs
}

// goldenDigests is keyed "codec/lane". Float32 cells hash the codec's
// float32 lane.
var goldenDigests = map[string]string{
	"mgard-like/f64":         "8fda95f76d66f4d8f7d0ccb414c3ab07d9825f684637012132442e9e0a10a437",
	"mgard-like/f32":         "5a64246c3af73ef54a8b5daa12c097f810d109e8e90deaa30a2774118e6a9070",
	"sz-like/f64":            "f7ea35ee4512f0df2fefbfaef9af44b2df0c65f7825e1a6b1d2ead9759fb36af",
	"sz-like/f32":            "b937168f7fc33170ce48c8d05f7af6ab762bd1f2872e52a7ba4f693092180127",
	"zfp-like/f64":           "d9399a7f5064a3cb128561b95defd4ec2e4409162e1f302867df1c0171bbb9ab",
	"zfp-like/f32":           "eacb85df56b95230144cfbaab321af527bb77ae94ee24d544f907cde95b464bb",
	"sz-like-lorenzo/f64":    "539f1eb7bffc8aae0de98fd350c502f5249ae5b24aaf0756e4da67673cd34d4b",
	"sz-like-lorenzo/f32":    "3123f3e46f98ebdf3879b824d91551039faa94100e45fee5be082012758cac69",
	"sz-like-regression/f64": "7905f2692a0f9a6ef1e07b74956b35b13bc9c5eeff4437f1fe397c8abeee1de1",
	"sz-like-regression/f32": "cec84566dd0d8891f2e0084221ddfa2f88ac8e5389212110f428e2ce89815661",
	"sz-like-3d/f64":         "a21fe08879bc9ee7e9b263180699670c4026c21545d389a13343b073d4c66d12",
	"sz-like-3d/f32":         "875026ae6828341ee2014c406d886b9cabf27b9725ff107bb1ad8602bc83b7a9",
	"zfp-like-3d/f64":        "47e8b1cc6f2a2468586fc63b8184f0018b702321669bd897806ff2b217d271e5",
	"zfp-like-3d/f32":        "deaec874304af01c0ae516bf28ec44ef489ccde0d3fb5b608ec2b654cd73b85c",
	"mgard-like-3d/f64":      "36fc8e1f688de664acfd26d22b75bd28ac75f02d6d73a83a8af2ab46acab7d56",
	"mgard-like-3d/f32":      "daa9603979e1887945cef85166495b9ce64968c4dea7038a418bfacf112facf8",
}

func TestCodecGoldenDigest(t *testing.T) {
	for _, rank := range []int{2, 3} {
		for _, c := range goldenCodecs(rank) {
			for _, lane := range []string{"f64", "f32"} {
				key := c.Name() + "/" + lane
				t.Run(key, func(t *testing.T) {
					h := sha256.New()
					for i, shape := range goldenShapes[rank] {
						f := goldenField(shape, i)
						for _, eb := range goldenBounds {
							var data []byte
							var err error
							if lane == "f64" {
								data, err = digestF64(h, c, f, eb)
							} else {
								data, err = digestF32(h, c, f.Narrow(), eb)
							}
							if err != nil {
								t.Fatalf("%v at %g: %v", shape, eb, err)
							}
							h.Write(data)
						}
					}
					got := hex.EncodeToString(h.Sum(nil))
					if want := goldenDigests[key]; got != want {
						t.Errorf("digest %s\n got  %s\n want %s", key, got, want)
					}
				})
			}
		}
	}
}

// digestF64 round-trips f, checks the bound, hashes the decompressed
// bits into h, and returns the stream.
func digestF64(h io.Writer, c compress.FieldCompressor, f *field.Field, eb float64) ([]byte, error) {
	data, err := c.CompressField(f, eb)
	if err != nil {
		return nil, err
	}
	dec, err := c.DecompressField(data)
	if err != nil {
		return nil, err
	}
	if m, err := f.MaxAbsDiff(dec); err != nil || m > eb*(1+1e-12) {
		return nil, fmt.Errorf("bound: max error %g (%v)", m, err)
	}
	var b [8]byte
	for _, v := range dec.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return data, nil
}

// digestF32 is digestF64 on the float32 lane.
func digestF32(h io.Writer, c compress.FieldCompressor, f *field.Field32, eb float64) ([]byte, error) {
	data, err := c.CompressField32(f, eb)
	if err != nil {
		return nil, err
	}
	dec, err := c.DecompressField32(data)
	if err != nil {
		return nil, err
	}
	if m, err := f.MaxAbsDiff(dec); err != nil || m > eb*(1+1e-12) {
		return nil, fmt.Errorf("bound: max error %g (%v)", m, err)
	}
	var b [4]byte
	for _, v := range dec.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return data, nil
}

// TestCodecDecodeIntoDst pins the caller's-buffer form of both decode
// lanes against the allocating form the digests above hash: decoding
// into a field of the stream's shape, which still holds the previous
// stream's samples, returns that field with the allocating form's bits.
// A field of another shape, or two, is ErrDstShape.
func TestCodecDecodeIntoDst(t *testing.T) {
	for _, rank := range []int{2, 3} {
		for _, c := range goldenCodecs(rank) {
			t.Run(c.Name(), func(t *testing.T) {
				for i, shape := range goldenShapes[rank] {
					f := goldenField(shape, i)
					dst, dst32 := field.New(shape...), field.New(shape...).Narrow()
					for _, eb := range goldenBounds {
						data, err := c.CompressField(f, eb)
						if err != nil {
							t.Fatal(err)
						}
						want, err := c.DecompressField(data, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got, err := c.DecompressField(data, dst); err != nil || got != dst || !sameBits(got.Data, want.Data) {
							t.Fatalf("f64 %v at %g: into dst differs from allocating decode (err %v)", shape, eb, err)
						}
						data32, err := c.CompressField32(f.Narrow(), eb)
						if err != nil {
							t.Fatal(err)
						}
						want32, err := c.DecompressField32(data32)
						if err != nil {
							t.Fatal(err)
						}
						if got, err := c.DecompressField32(data32, dst32); err != nil || got != dst32 || !sameBits(got.Data, want32.Data) {
							t.Fatalf("f32 %v at %g: into dst differs from allocating decode (err %v)", shape, eb, err)
						}
						wrong := field.New(append([]int{2}, shape[1:]...)...)
						if shape[0] == 2 {
							wrong = field.New(append([]int{3}, shape[1:]...)...)
						}
						if _, err := c.DecompressField(data, wrong); !errors.Is(err, compress.ErrDstShape) {
							t.Fatalf("f64 %v: dst of shape %v gave %v, want ErrDstShape", shape, wrong.Shape, err)
						}
						if _, err := c.DecompressField32(data32, wrong.Narrow()); !errors.Is(err, compress.ErrDstShape) {
							t.Fatalf("f32 %v: dst of shape %v gave %v, want ErrDstShape", shape, wrong.Shape, err)
						}
						if _, err := c.DecompressField(data, dst, dst); !errors.Is(err, compress.ErrDstShape) {
							t.Fatalf("f64 %v: two dsts gave %v, want ErrDstShape", shape, err)
						}
					}
				}
			})
		}
	}
}

// sameBits reports whether a and b hold the same samples bit for bit.
func sameBits[T float32 | float64](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}
