// Package mgardlike implements an MGARD-style multilevel error-bounded
// lossy compressor (Ainsworth et al., SIAM J. Sci. Comput. 2019) in
// pure Go. Like MGARD it decomposes the field into multilevel
// coefficients over recursively nested dyadic lattices — corrections of
// fine nodes against interpolation from the next-coarser lattice — then
// quantizes the corrections with a per-level error budget whose sum
// honors the absolute bound, and entropy codes them (canonical Huffman
// + DEFLATE, standing in for MGARD's Zlib/Zstd stage). It is written
// once over the rank (2 or 3) and the element lane (float64 or float32).
//
// Because coarse lattice nodes influence the entire domain, the
// decomposition captures global, multi-scale correlation structure that
// the block-local SZ-like and ZFP-like compressors cannot — the
// property behind MGARD's flatter CR-versus-variogram-range curves in
// the paper (Figures 3 and 4).
package mgardlike

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/huffman"
	"lossycorr/internal/lossless"
	"lossycorr/internal/quant"
)

// magic tags a stream by rank and lane: magic[rank-2][lane], lane 0
// float64 and lane 1 float32.
var magic = [2][2][4]byte{
	{{'M', 'G', 'L', '1'}, {'M', 'G', 'L', 'f'}},
	{{'M', 'G', 'L', '3'}, {'M', 'G', '3', 'f'}},
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("mgardlike: corrupt stream")

// Compressor is the MGARD-like codec. The zero value is ready to use: it
// serves rank-2 fields as "mgard-like", and Rank 3 serves volumes as
// "mgard-like-3d".
type Compressor struct{ compress.Rank }

var _ compress.FieldCompressor = Compressor{}

// Name implements compress.FieldCompressor.
func (c Compressor) Name() string { return c.Named("mgard-like") }

// CompressField implements compress.FieldCompressor.
func (c Compressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	return encode(f.Shape, f.Data, c.N(), absErr)
}

// DecompressField implements compress.FieldCompressor.
func (c Compressor) DecompressField(data []byte) (*field.Field, error) {
	return decode[float64](data, c.N())
}

// CompressField32 implements compress.FieldCompressor.
func (c Compressor) CompressField32(f *field.Field32, absErr float64) ([]byte, error) {
	return encode(f.Shape, f.Data, c.N(), absErr)
}

// DecompressField32 implements compress.FieldCompressor.
func (c Compressor) DecompressField32(data []byte) (*field.Field32, error) {
	return decode[float32](data, c.N())
}

// dims is a field's shape seen as rank 3 (a 2D field gets a unit
// leading axis) and its number L of dyadic refinement levels: the
// coarsest lattice has stride 2^L and still at least two nodes along
// the longest axis.
func dims(shape []int) (d [3]int, levels int) {
	d = [3]int{1, 1, 1}
	copy(d[3-len(shape):], shape)
	for n := slices.Max(shape); 1<<(levels+1) < n; {
		levels++
	}
	return d, levels
}

// walk visits every node of a d[0]×d[1]×d[2] array once, in the order
// encoder and decoder share: the stride-2^L lattice with the zero
// predictor, then for each finer stride s the stride-s nodes off the
// stride-2s lattice. fn gets the node's flat index and its prediction
// from a, the average of its ±s neighbours along every axis on which it
// is off the 2s lattice, summed with axis 0 slowest and − before +.
func walk[T field.Elem](a []T, d [3]int, levels int, fn func(i int, pred float64)) {
	sy, sz, top := d[2], d[1]*d[2], 1<<levels
	for s := top; s >= 1; s /= 2 {
		for z := 0; z < d[0]; z += s {
			for y := 0; y < d[1]; y += s {
				if s == top {
					for x := 0; x < d[2]; x += s {
						fn(z*sz+y*sy+x, 0)
					}
					continue
				}
				// Corner row offsets, z slowest: an axis off the 2s lattice
				// moves every corner by −s and, inside the axis, splits it.
				ro, nr := [4]int{}, 1
				for k, c := range [2]int{z, y} {
					switch st := s * [2]int{sz, sy}[k]; {
					case c&s == 0:
					case c+s < d[k]:
						for j := nr - 1; j >= 0; j-- {
							ro[2*j], ro[2*j+1] = ro[j]-st, ro[j]+st
						}
						nr *= 2
					default:
						for j := range nr {
							ro[j] -= st
						}
					}
				}
				x0, dx := 0, s
				if nr == 1 && ro[0] == 0 { // a coarse row: skip its coarse nodes
					x0, dx = s, 2*s
				}
				// corner counts are powers of two: 1/n multiplies exactly
				inv := [3]float64{0, 1 / float64(nr), 1 / float64(2*nr)}
				row, corners := z*sz+y*sy, ro[:nr]
				for x := x0; x < d[2]; x += dx {
					i, sum, k := row+x, 0.0, 1
					switch { // the x sides, unrolled: this is the hot loop
					case x&s == 0:
						for _, o := range corners {
							sum += float64(a[i+o])
						}
					case x+s < d[2]:
						for _, o := range corners {
							sum += float64(a[i+o-s])
							sum += float64(a[i+o+s])
						}
						k = 2
					default:
						for _, o := range corners {
							sum += float64(a[i+o-s])
						}
					}
					fn(i, sum*inv[k])
				}
			}
		}
	}
}

// quantizer is the per-level quantizer. The decomposition is open-loop,
// like MGARD's: coefficients are corrections of original values against
// interpolation of original coarser values, while reconstruction
// interpolates reconstructed ones, so per-node error accumulates down
// the hierarchy, err(l) <= q + err(l+1) <= (L+1-l)·q, and a uniform
// budget q = eb/(L+1) keeps it within the bound. The float32 lane halves
// q: its samples are float32s, so the nearest float32 to a float64
// reconstruction is at most twice as far from the sample.
func quantizer[T field.Elem](absErr float64, levels int) quant.Quantizer {
	return quant.New(absErr / float64((levels+1)*(1+compress.Lane[T]())))
}

// symbolPool recycles the encoder's symbol stream and recPool the
// decoder's float64 reconstruction, narrowed once on the float32 lane.
var (
	symbolPool = sync.Pool{New: func() any { return new([]uint16) }}
	recPool    = sync.Pool{New: func() any { return new([]float64) }}
)

// encode compresses a rank-`rank` field on either lane.
func encode[T field.Elem](shape []int, data []T, rank int, absErr float64) ([]byte, error) {
	if err := compress.CheckBound(absErr); err != nil {
		return nil, fmt.Errorf("mgardlike: %w", err)
	}
	if len(shape) != rank {
		return nil, fmt.Errorf("mgardlike: rank-%d codec got a rank-%d field", rank, len(shape))
	}
	if len(data) == 0 {
		return nil, errors.New("mgardlike: empty field")
	}
	d, levels := dims(shape)
	q := quantizer[T](absErr, levels)
	sp := symbolPool.Get().(*[]uint16)
	defer symbolPool.Put(sp)
	symbols := (*sp)[:0]
	var exact []T
	// Coarsest-lattice values and corrections too large for the code
	// range escape to exact storage.
	walk(data, d, levels, func(i int, pred float64) {
		v := data[i]
		if sym, _, ok := q.Encode(float64(v) - pred); ok {
			symbols = append(symbols, sym)
			return
		}
		symbols = append(symbols, quant.Escape)
		exact = append(exact, v)
	})

	huff := huffman.Encode(symbols)
	*sp = symbols // retain grown capacity for reuse
	buf := compress.AppendHeader(nil, magic[rank-2][compress.Lane[T]()], shape, absErr)
	buf = compress.AppendExact(buf, exact)
	buf = append(buf, huff...)
	return lossless.Compress(buf)
}

// decode reconstructs a rank-`rank` field on lane T, rejecting streams
// of another rank or lane.
func decode[T field.Elem](data []byte, rank int) (*field.Of[T], error) {
	raw, err := lossless.Decompress(data)
	if err != nil {
		return nil, fmt.Errorf("mgardlike: %w", err)
	}
	h, body, ok := compress.ParseHeader(raw, magic[rank-2][compress.Lane[T]()], rank)
	if !ok {
		return nil, ErrCorrupt
	}
	exact, body, ok := compress.Exact[T](body)
	if !ok {
		return nil, ErrCorrupt
	}
	symbols, err := huffman.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("mgardlike: %w", err)
	}
	// The encoder emits exactly one symbol per node, so any other count
	// is corrupt — rejected before the header's shape, which may claim
	// up to 2^30 nodes, drives the reconstruction allocation.
	if len(symbols) != h.Len {
		return nil, ErrCorrupt
	}

	d, levels := dims(h.Shape)
	q := quantizer[T](h.AbsErr, levels)
	rp := recPool.Get().(*[]float64)
	defer recPool.Put(rp)
	rec := slices.Grow((*rp)[:0], h.Len)[:h.Len] // walk writes each node before reading it
	*rp = rec
	si, ei := 0, 0
	// A node adds its symbol's correction to pred, or takes the next exact
	// value for an escape; a short exact list fails the final check.
	walk(rec, d, levels, func(i int, pred float64) {
		sym := symbols[si]
		si++
		if sym != quant.Escape {
			rec[i] = pred + q.Decode(sym)
			return
		}
		if ei < len(exact) {
			rec[i] = float64(exact[ei])
		}
		ei++
	})
	if ei != len(exact) {
		return nil, ErrCorrupt
	}
	out := &field.Of[T]{Shape: h.Shape, Data: make([]T, h.Len)}
	for i, v := range rec {
		out.Data[i] = T(v)
	}
	return out, nil
}
