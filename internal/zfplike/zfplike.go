// Package zfplike implements a ZFP-style transform compressor
// (Lindstrom & Isenburg, TVCG 2006 / ZFP 0.5) in pure Go. Like ZFP it
// partitions the field into 4^d blocks (4×4 in 2D, 4×4×4 in 3D), aligns
// each block to a common exponent in integer fixed point, applies an
// invertible integer multiresolution transform one axis at a time,
// converts coefficients to negabinary (ZFP's truncation-friendly sign
// representation), and encodes coefficient bit planes from most to
// least significant, truncating at a plane derived from the absolute
// tolerance. The transposed bit-plane layout is highly compressible and
// the stream finishes with a DEFLATE pass.
//
// The codec is written once over the rank (2 or 3) and the element
// lane (float64 or float32). The float32 lane gathers blocks straight
// from float32 samples (widened exactly into the unchanged fixed-point
// transform), stores raw blocks as 4-byte floats, and narrows the
// reconstruction at scatter time. Its bound argument: every original
// sample v is a float32, so rounding a float64 reconstruction x̂ to the
// nearest float32 satisfies |f32(x̂) − v| ≤ 2·|x̂ − v| (v itself is a
// rounding candidate). The coded path therefore runs at tolerance
// absErr/2 — one extra bit plane — and the raw-block threshold doubles,
// pinning max|f32(x̂) − v| ≤ absErr with no per-element check.
//
// Deviation from real ZFP (documented in DESIGN.md): the block
// transform is a two-level integer Haar S-transform rather than ZFP's
// proprietary lifting scheme. Both are invertible integer
// decorrelators applied per 4-vector; the compression character
// (block-local decorrelation + embedded bit-plane truncation) is
// preserved, which is what the paper's correlation analysis probes.
package zfplike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"lossycorr/internal/bitstream"
	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/lossless"
)

// BlockSize is the block edge (ZFP uses 4 in each dimension).
const BlockSize = 4

// fixedPointBits positions the fixed-point scaling: values are scaled
// by 2^(fixedPointBits − emax) so |q| < 2^fixedPointBits before the
// transform, which grows magnitudes by at most 2× per axis, keeping
// everything far inside int64.
const fixedPointBits = 50

const (
	blockZero  byte = iota // all-zero block, no payload
	blockCoded             // bit-plane payload
	blockRaw               // 4^d exact samples (tolerance finer than fixed point)
)

// magic tags a stream by rank and lane: magic[rank-2][lane], lane 0
// float64 and lane 1 float32.
var magic = [2][2][4]byte{
	{{'Z', 'F', 'L', '1'}, {'Z', 'F', 'L', 'f'}},
	{{'Z', 'F', 'L', '3'}, {'Z', 'F', '3', 'f'}},
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("zfplike: corrupt stream")

// Compressor is the ZFP-like codec. The zero value is ready to use: it
// serves rank-2 fields as "zfp-like", and Rank 3 serves volumes as
// "zfp-like-3d".
type Compressor struct{ compress.Rank }

var _ compress.FieldCompressor = Compressor{}

// Name implements compress.FieldCompressor.
func (c Compressor) Name() string { return c.Named("zfp-like") }

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

// fwd4 applies the two-level integer Haar S-transform to a stride-s
// 4-vector in place: output order (coarse mean, coarse detail, fine
// detail 0, fine detail 1).
func fwd4(p []int64, s int) {
	a, b, c, d := p[0], p[s], p[2*s], p[3*s]
	s0, d0 := (a+b)>>1, a-b
	s1, d1 := (c+d)>>1, c-d
	ss, ds := (s0+s1)>>1, s0-s1
	p[0], p[s], p[2*s], p[3*s] = ss, ds, d0, d1
}

// inv4 exactly inverts fwd4.
func inv4(p []int64, s int) {
	ss, ds, d0, d1 := p[0], p[s], p[2*s], p[3*s]
	s0 := ss + ((ds + 1) >> 1)
	s1 := s0 - ds
	a := s0 + ((d0 + 1) >> 1)
	b := a - d0
	c := s1 + ((d1 + 1) >> 1)
	d := c - d1
	p[0], p[s], p[2*s], p[3*s] = a, b, c, d
}

// forward transforms a 4^d block stored last-axis-fastest one axis at
// a time, last axis (stride 1) first.
func forward(q []int64) {
	for s := 1; s < len(q); s *= 4 {
		for hi := 0; hi < len(q); hi += 4 * s {
			for lo := range s {
				fwd4(q[hi+lo:], s)
			}
		}
	}
}

// inverse inverts forward, first axis first.
func inverse(q []int64) {
	for s := len(q) / 4; s >= 1; s /= 4 {
		for hi := 0; hi < len(q); hi += 4 * s {
			for lo := range s {
				inv4(q[hi+lo:], s)
			}
		}
	}
}

// negabinary mask: alternating 1s at the odd bit positions.
const nbMask uint64 = 0xaaaaaaaaaaaaaaaa

// toNegabinary converts two's complement to base −2, ZFP's sign
// representation. Unlike zigzag or sign-magnitude, zeroing the low k
// negabinary digits perturbs the value by less than 2^k, which makes
// MSB-first bit-plane truncation error-bounded.
func toNegabinary(v int64) uint64 { return (uint64(v) + nbMask) ^ nbMask }

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint64) int64 { return int64((u ^ nbMask) - nbMask) }

// blockExponent returns e such that every |v| in the block is < 2^e,
// and whether the block is entirely zero.
func blockExponent(vals []float64) (int, bool) {
	maxAbs := 0.0
	for _, v := range vals {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0, true
	}
	_, e := math.Frexp(maxAbs) // maxAbs = f·2^e with f ∈ [0.5, 1)
	return e, false
}

// blockFinite reports whether every value is finite; non-finite blocks
// must bypass the fixed-point transform (which would smear NaN/Inf
// across every coefficient) and be stored raw.
func blockFinite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// planeCutoff returns the lowest bit-plane index kept so that the
// worst-case reconstruction error of a rank-d block stays within tol.
// Zeroing the low k negabinary digits perturbs a coefficient by at
// most (2/3)·2^k; each inverse S-transform stage maps per-coefficient
// error E to at most 2E+1, so the d-stage inverse plus the 0.5-unit
// fixed-point rounding stays within 2^(k+d) + 2^(d+1) fixed-point
// units. Choosing k = floor(log2(tol·scale)) − (d+1) puts the 2^(k+d)
// term under tol·scale/2, and the raw-block fallback guarantees
// tol·scale ≥ 2^(d+2) so the rest fits in the other half.
func planeCutoff(tol float64, emax, rank int) int {
	if tol <= 0 {
		return 0
	}
	return max(int(math.Floor(math.Log2(tol)))+fixedPointBits-emax-(rank+1), 0)
}

// geom is a field's shape seen as rank 3 (a 2D field gets a unit
// leading axis) with its block edges: {1, 4, 4} or {4, 4, 4}.
type geom struct {
	dims, block [3]int
}

func newGeom(shape []int) geom {
	g := geom{dims: [3]int{1, 1, 1}, block: [3]int{1, BlockSize, BlockSize}}
	copy(g.dims[3-len(shape):], shape)
	if len(shape) == 3 {
		g.block[0] = BlockSize
	}
	return g
}

// numBlocks counts the blocks covering the field.
func (g *geom) numBlocks() int {
	n := 1
	for k, d := range g.dims {
		n *= (d + g.block[k] - 1) / g.block[k]
	}
	return n
}

// blockOrigin returns the origin of block bi, blocks numbered in
// row-major order.
func (g *geom) blockOrigin(bi int) (o [3]int) {
	for k := 2; k >= 0; k-- {
		nb := (g.dims[k] + g.block[k] - 1) / g.block[k]
		o[k] = bi % nb * g.block[k]
		bi /= nb
	}
	return o
}

// gather widens the block at o into vals (last axis fastest),
// replicating edge samples into clipped blocks; replicated samples are
// real samples, so their reconstruction error is bounded too.
func gather[T field.Elem](data []T, g *geom, o [3]int, vals []float64) {
	j := 0
	for z := range g.block[0] {
		gz := min(o[0]+z, g.dims[0]-1)
		for y := range BlockSize {
			row := (gz*g.dims[1] + min(o[1]+y, g.dims[1]-1)) * g.dims[2]
			for x := range BlockSize {
				vals[j] = float64(data[row+min(o[2]+x, g.dims[2]-1)])
				j++
			}
		}
	}
}

// scatter narrows the in-range portion of a block back to T.
func scatter[T field.Elem](data []T, g *geom, o [3]int, vals []float64) {
	for z := range min(g.block[0], g.dims[0]-o[0]) {
		for y := range min(BlockSize, g.dims[1]-o[1]) {
			row := ((o[0]+z)*g.dims[1]+o[1]+y)*g.dims[2] + o[2]
			j := (z*BlockSize + y) * BlockSize
			for x := range min(BlockSize, g.dims[2]-o[2]) {
				data[row+x] = T(vals[j+x])
			}
		}
	}
}

// compressScratch holds the per-call stream builders of encode — block
// modes, coded-block metadata, raw escapes, and the bit-plane writer —
// recycled across batch measurement runs on either lane.
type compressScratch struct {
	modes, meta, rawVals []byte
	w                    *bitstream.Writer
}

var scratchPool = sync.Pool{New: func() any {
	return &compressScratch{w: bitstream.NewWriter()}
}}

// encode compresses a rank-`rank` field on either lane.
func encode[T field.Elem](shape []int, data []T, rank int, absErr float64) ([]byte, error) {
	if err := compress.CheckBound(absErr); err != nil {
		return nil, fmt.Errorf("zfplike: %w", err)
	}
	if len(shape) != rank {
		return nil, fmt.Errorf("zfplike: rank-%d codec got a rank-%d field", rank, len(shape))
	}
	if len(data) == 0 {
		return nil, errors.New("zfplike: empty field")
	}
	g := newGeom(shape)
	// The fixed-point grid has spacing 2^(emax−fixedPointBits); rounding
	// into it (0.5 ulp) amplified by the rank-d inverse transform costs
	// < 2^(emax−fixedPointBits+d+1), which must fit inside half the
	// tolerance, so blocks with fpErr = 2^(emax−fixedPointBits+d+2) above
	// the bound are stored raw. The float32 lane codes at half the
	// tolerance, so its floor doubles.
	l, tol, fpShift := 0, absErr, rank+2
	if field.ElemBytes[T]() == 4 {
		l, tol, fpShift = 1, 0.5*absErr, rank+3
	}

	sc := scratchPool.Get().(*compressScratch)
	defer scratchPool.Put(sc)
	modes := sc.modes[:0]
	meta := sc.meta[:0] // per coded block: emax int16, top byte, cutoff byte
	rawVals := sc.rawVals[:0]
	w := sc.w
	w.Reset()

	nv := 1 << (2 * rank) // samples per block
	var valsBuf [64]float64
	var qBuf [64]int64
	var zzBuf [64]uint64
	vals, q, zz := valsBuf[:nv], qBuf[:nv], zzBuf[:nv]
	for bi := range g.numBlocks() {
		gather(data, &g, g.blockOrigin(bi), vals)
		emax, zero := blockExponent(vals)
		if zero {
			modes = append(modes, blockZero)
			continue
		}
		if fpErr := math.Ldexp(1, emax-fixedPointBits+fpShift); absErr < fpErr || !blockFinite(vals) {
			modes = append(modes, blockRaw)
			for _, v := range vals {
				rawVals = compress.AppendValue(rawVals, T(v))
			}
			continue
		}
		scale := math.Ldexp(1, fixedPointBits-emax)
		for i, v := range vals {
			q[i] = int64(math.Round(v * scale))
		}
		forward(q)
		top := 0 // number of planes needed: position of highest set bit
		for i, v := range q {
			zz[i] = toNegabinary(v)
			top = max(top, bits.Len64(zz[i]))
		}
		cutoff := min(planeCutoff(tol, emax, rank), top)
		modes = append(modes, blockCoded)
		meta = binary.LittleEndian.AppendUint16(meta, uint16(int16(emax)))
		meta = append(meta, byte(top), byte(cutoff))
		// Transposed bit planes, MSB first: each plane's nv bits are
		// gathered into one word (coefficient 0 at the high bit) and
		// emitted with a single batched write.
		for plane := top - 1; plane >= cutoff; plane-- {
			var pb uint64
			for _, u := range zz {
				pb = pb<<1 | (u>>uint(plane))&1
			}
			w.WriteBits(pb, uint(nv))
		}
	}

	sc.modes, sc.meta, sc.rawVals = modes, meta, rawVals // retain capacity
	payload := compress.AppendHeader(nil, magic[rank-2][l], shape, absErr)
	payload = append(payload, modes...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(meta)))
	payload = append(payload, meta...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rawVals)))
	payload = append(payload, rawVals...)
	payload = append(payload, w.Bytes()...)
	return lossless.Compress(payload)
}

// decode reconstructs a rank-`rank` field on lane T, rejecting streams
// of another rank or lane.
func decode[T field.Elem](data []byte, rank int) (*field.Of[T], error) {
	raw, err := lossless.Decompress(data)
	if err != nil {
		return nil, fmt.Errorf("zfplike: %w", err)
	}
	vw := field.ElemBytes[T]()
	h, body, ok := compress.ParseHeader(raw, magic[rank-2][compress.Lane[T]()], rank)
	if !ok {
		return nil, ErrCorrupt
	}
	g := newGeom(h.Shape)
	nBlocks := g.numBlocks()
	if len(body) < nBlocks+4 {
		return nil, ErrCorrupt
	}
	modes, body := body[:nBlocks], body[nBlocks:]
	metaLen := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if metaLen < 0 || len(body) < metaLen+4 {
		return nil, ErrCorrupt
	}
	meta, body := body[:metaLen], body[metaLen:]
	rawLen := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if rawLen < 0 || len(body) < rawLen {
		return nil, ErrCorrupt
	}
	rawVals := body[:rawLen]
	r := bitstream.NewReader(body[rawLen:])

	out := &field.Of[T]{Shape: h.Shape, Data: make([]T, h.Len)}
	nv := 1 << (2 * rank)
	var valsBuf [64]float64
	var qBuf [64]int64
	var zzBuf [64]uint64
	vals, q, zz := valsBuf[:nv], qBuf[:nv], zzBuf[:nv]
	mi, ri := 0, 0
	for bi, mode := range modes {
		switch mode {
		case blockZero:
			clear(vals)
		case blockRaw:
			if ri+vw*nv > len(rawVals) {
				return nil, ErrCorrupt
			}
			for i := range vals {
				vals[i] = float64(compress.Value[T](rawVals[ri:]))
				ri += vw
			}
		case blockCoded:
			if mi+4 > len(meta) {
				return nil, ErrCorrupt
			}
			emax := int(int16(binary.LittleEndian.Uint16(meta[mi:])))
			top := int(meta[mi+2])
			cutoff := int(meta[mi+3])
			mi += 4
			if top > 64 || cutoff > top {
				return nil, ErrCorrupt
			}
			clear(zz)
			for plane := top - 1; plane >= cutoff; plane-- {
				pb, err := r.ReadBits(uint(nv))
				if err != nil {
					return nil, fmt.Errorf("zfplike: truncated planes: %w", err)
				}
				for i := len(zz) - 1; i >= 0; i-- { // coefficient 0 at the high bit
					zz[i] |= (pb & 1) << uint(plane)
					pb >>= 1
				}
			}
			for i := range q {
				q[i] = fromNegabinary(zz[i])
			}
			inverse(q)
			scale := math.Ldexp(1, emax-fixedPointBits)
			for i := range vals {
				vals[i] = float64(q[i]) * scale
			}
		default:
			return nil, ErrCorrupt
		}
		scatter(out.Data, &g, g.blockOrigin(bi), vals)
	}
	return out, nil
}
