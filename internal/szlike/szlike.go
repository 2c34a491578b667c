// Package szlike implements an SZ-style error-bounded lossy compressor
// (Liang et al., IEEE Big Data 2018) in pure Go. Like SZ 2.x it works
// block by block — 16×16 blocks for 2D fields, 8×8×8 for 3D — choosing
// per block between a Lorenzo predictor (reconstructed-neighbour
// extrapolation) and a regression predictor (least-squares hyperplane
// through the block), then linearly quantizes prediction residuals into
// 2·eb bins with an escape path that stores unpredictable values
// exactly. The symbol stream is entropy coded with canonical Huffman
// and the whole payload passes through DEFLATE, standing in for SZ's
// Zstd stage.
//
// The codec is written once over the rank (2 or 3) and the element
// lane (float64 or float32). Prediction arithmetic runs in float64 on
// either lane (widening a float32 is exact); the float32 lane keeps its
// reconstruction mirror, escapes and output in float32 and re-checks
// every quantized sample after narrowing: a sample whose float32
// rounding would leave the bound escapes to exact storage, so the bound
// holds on the values a float32 consumer reads.
//
// Because the predictor only sees local context, the compressor
// exploits local correlation structure — the property the paper links
// to the variogram range.
package szlike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/huffman"
	"lossycorr/internal/lossless"
	"lossycorr/internal/quant"
)

// BlockSize is the 2D prediction block edge, matching SZ's 16×16.
const BlockSize = 16

// BlockSize3D is the 3D prediction block edge (SZ uses 8×8×8).
const BlockSize3D = 8

const (
	modeLorenzo byte = iota
	modeRegression
)

// magic tags a stream by rank and lane: magic[rank-2][lane], lane 0
// float64 and lane 1 float32.
var magic = [2][2][4]byte{
	{{'S', 'Z', 'L', '1'}, {'S', 'Z', 'L', 'f'}},
	{{'S', 'Z', 'L', '3'}, {'S', 'Z', '3', 'f'}},
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("szlike: corrupt stream")

// PredictorMode restricts which block predictor Compress may choose —
// an ablation knob for quantifying what each of SZ's two predictors
// contributes (the root module's BenchmarkAblationSZPredictors).
type PredictorMode int

const (
	// PredictorAuto picks the better predictor per block (SZ's behavior).
	PredictorAuto PredictorMode = iota
	// PredictorLorenzoOnly forces the Lorenzo predictor everywhere.
	PredictorLorenzoOnly
	// PredictorRegressionOnly forces the regression predictor everywhere.
	PredictorRegressionOnly
)

// Compressor is the SZ-like codec. The zero value is ready to use: it
// serves rank-2 fields as "sz-like" with auto predictor selection, and
// Rank 3 serves volumes as "sz-like-3d".
type Compressor struct {
	compress.Rank
	// Mode restricts predictor choice at rank 2, an ablation with its
	// own name; zero means auto. Rank 3 always selects automatically.
	Mode PredictorMode
}

var _ compress.FieldCompressor = Compressor{}

// mode is the predictor restriction in effect.
func (c Compressor) mode() PredictorMode {
	if c.N() == 3 {
		return PredictorAuto
	}
	return c.Mode
}

// Name implements compress.FieldCompressor.
func (c Compressor) Name() string {
	switch c.mode() {
	case PredictorLorenzoOnly:
		return "sz-like-lorenzo"
	case PredictorRegressionOnly:
		return "sz-like-regression"
	default:
		return c.Named("sz-like")
	}
}

// CompressField implements compress.FieldCompressor.
func (c Compressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	return encode(f.Shape, f.Data, c.N(), c.mode(), absErr)
}

// DecompressField implements compress.FieldCompressor.
func (c Compressor) DecompressField(data []byte, dst ...*field.Field) (*field.Field, error) {
	return decode(data, c.N(), dst)
}

// CompressField32 implements compress.FieldCompressor.
func (c Compressor) CompressField32(f *field.Field32, absErr float64) ([]byte, error) {
	return encode(f.Shape, f.Data, c.N(), c.mode(), absErr)
}

// DecompressField32 implements compress.FieldCompressor.
func (c Compressor) DecompressField32(data []byte, dst ...*field.Field32) (*field.Field32, error) {
	return decode(data, c.N(), dst)
}

// geom is a field's shape seen as rank 3 — a 2D field gets a unit
// leading axis — with one zero ghost layer before each real axis, so
// every Lorenzo neighbour of an in-field sample exists in the padded
// buffers and out-of-field neighbours read 0 (SZ's border convention).
type geom struct {
	rank   int
	dims   [3]int // nz, ny, nx (nz = 1 at rank 2)
	block  [3]int // block edges: {1, 16, 16} or {8, 8, 8}
	sy, sz int    // padded strides of the y and z axes
	padded int    // padded element count
}

func newGeom(shape []int) geom {
	g := geom{rank: len(shape), dims: [3]int{1, 1, 1}, block: [3]int{1, BlockSize, BlockSize}}
	copy(g.dims[3-g.rank:], shape)
	g.sy = g.dims[2] + 1
	g.sz = (g.dims[1] + 1) * g.sy
	g.padded = g.dims[0] * g.sz
	if g.rank == 3 {
		g.block = [3]int{BlockSize3D, BlockSize3D, BlockSize3D}
		g.padded += g.sz
	}
	return g
}

// at returns the padded index of sample (z, y, x).
func (g *geom) at(z, y, x int) int { return (z+g.rank-2)*g.sz + (y+1)*g.sy + x + 1 }

// numBlocks counts the blocks covering the field.
func (g *geom) numBlocks() int {
	n := 1
	for k, d := range g.dims {
		n *= (d + g.block[k] - 1) / g.block[k]
	}
	return n
}

// blockAt returns the origin and clipped extents of block bi, blocks
// numbered in row-major order.
func (g *geom) blockAt(bi int) (o, n [3]int) {
	for k := 2; k >= 0; k-- {
		nb := (g.dims[k] + g.block[k] - 1) / g.block[k]
		o[k] = bi % nb * g.block[k]
		n[k] = min(g.block[k], g.dims[k]-o[k])
		bi /= nb
	}
	return o, n
}

// rowPred is the regression hyperplane's offset for block row (z, y),
// summed in the stored coefficient order.
func (g *geom) rowPred(b *[4]float64, z, y int) float64 {
	p := b[0]
	if g.rank == 3 {
		p += b[1] * float64(z)
	}
	return p + b[2]*float64(y)
}

// lorenzo is the Lorenzo prediction at padded index i: the
// inclusion–exclusion over the 2^d−1 lower neighbours, summed by
// popcount and then by mask (bit 0 = last axis). That is a+b−d in 2D
// and SZ's seven-term order in 3D.
func lorenzo[T field.Elem](a []T, g *geom, i int) float64 {
	x, y := float64(a[i-1]), float64(a[i-g.sy])
	if g.rank == 2 {
		return x + y - float64(a[i-g.sy-1])
	}
	return x + y + float64(a[i-g.sz]) -
		float64(a[i-g.sy-1]) - float64(a[i-g.sz-1]) - float64(a[i-g.sz-g.sy]) +
		float64(a[i-g.sz-g.sy-1])
}

// fit returns the least-squares hyperplane v ≈ b[0] + b[1]·z + b[2]·y
// + b[3]·x through a block, coordinates relative to its origin, in
// closed form: on the integer lattice the centred design is orthogonal,
// so the slopes decouple (a 2D field's unit z axis gets slope 0). The
// coefficients are rounded through float32, the stored representation,
// so compressor and decompressor predict identically.
func fit[T field.Elem](src []T, g *geom, o, n [3]int) (b [4]float64) {
	var sv, szv, syv, sxv float64
	for z := range n[0] {
		for y := range n[1] {
			i := g.at(o[0]+z, o[1]+y, o[2])
			zf, yf := float64(z), float64(y)
			for x, e := range src[i : i+n[2]] {
				v := float64(e)
				sv += v
				szv += zf * v
				syv += yf * v
				sxv += float64(x) * v
			}
		}
	}
	// Each axis's coordinate sum is an exact integer, so its closed form
	// gives the same mean as summing per sample.
	cnt := n[0] * n[1] * n[2]
	total := float64(cnt)
	sums := [3]float64{szv, syv, sxv}
	var mean [3]float64
	b[0] = sv / total
	for k := range 3 {
		other := cnt / n[k]
		mean[k] = float64(other*n[k]*(n[k]-1)/2) / total
		var skk float64
		for i := range n[k] {
			d := float64(i) - mean[k]
			skk += d * d * float64(other)
		}
		if skk > 0 {
			b[1+k] = (sums[k] - mean[k]*sv) / skk
		}
	}
	for k := range 3 {
		b[0] -= b[1+k] * mean[k]
	}
	for k := range b {
		b[k] = float64(float32(b[k]))
	}
	return b
}

// estimate scores both predictors on a block's original samples (SZ
// samples; this evaluates exactly) as sums of squared residuals, so the
// cheaper mode wins.
func estimate[T field.Elem](src []T, g *geom, o, n [3]int, b *[4]float64) (lorenzoErr, regressionErr float64) {
	for z := range n[0] {
		for y := range n[1] {
			i := g.at(o[0]+z, o[1]+y, o[2])
			rowPred := g.rowPred(b, z, y)
			for x := range n[2] {
				v := float64(src[i+x])
				le := v - lorenzo(src, g, i+x)
				lorenzoErr += le * le
				re := v - (rowPred + b[3]*float64(x))
				regressionErr += re * re
			}
		}
	}
	return lorenzoErr, regressionErr
}

// interior copies every row between a field's flat samples and the
// interior of a padded buffer, into the buffer when toPadded is set.
func interior[T field.Elem](g *geom, flat, padded []T, toPadded bool) {
	nx := g.dims[2]
	for z := range g.dims[0] {
		for y := range g.dims[1] {
			f, p := (z*g.dims[1]+y)*nx, g.at(z, y, 0)
			if toPadded {
				copy(padded[p:p+nx], flat[f:f+nx])
			} else {
				copy(flat[f:f+nx], padded[p:p+nx])
			}
		}
	}
}

// scratch is the per-call working set — the padded source and
// reconstruction, the symbol stream, the block modes, coefficients and
// escapes, and the payload handed to the lossless stage — recycled per
// lane so batch measurement (every field × error bound) stops
// re-allocating a field's worth of scratch per run.
type scratch[T field.Elem] struct {
	src, rec, exact []T
	symbols         []uint16
	modes, payload  []byte
	coeffs          []float32
}

var pools = [2]sync.Pool{
	{New: func() any { return new(scratch[float64]) }},
	{New: func() any { return new(scratch[float32]) }},
}

// zeroed returns s[:n] reusing capacity, zero-filled.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// encode compresses a rank-`rank` field on either lane.
func encode[T field.Elem](shape []int, data []T, rank int, mode PredictorMode, absErr float64) ([]byte, error) {
	if err := compress.CheckBound(absErr); err != nil {
		return nil, fmt.Errorf("szlike: %w", err)
	}
	if len(shape) != rank {
		return nil, fmt.Errorf("szlike: rank-%d codec got a rank-%d field", rank, len(shape))
	}
	if len(data) == 0 {
		return nil, errors.New("szlike: empty field")
	}
	l := compress.Lane[T]()
	sc := pools[l].Get().(*scratch[T])
	defer pools[l].Put(sc)
	g := newGeom(shape)
	src := zeroed(sc.src, g.padded)
	rec := zeroed(sc.rec, g.padded)
	interior(&g, data, src, true)
	narrow := l == 1
	q := quant.New(absErr)
	nBlocks := g.numBlocks()
	modes := sc.modes[:0]
	symbols := sc.symbols[:0]
	coeffs := sc.coeffs[:0] // rank+1 per regression block
	exact := sc.exact[:0]

	for bi := range nBlocks {
		o, n := g.blockAt(bi)
		var b [4]float64
		m := modeLorenzo
		switch mode {
		case PredictorRegressionOnly:
			b, m = fit(src, &g, o, n), modeRegression
		case PredictorAuto:
			b = fit(src, &g, o, n)
			if le, re := estimate(src, &g, o, n, &b); re < le {
				m = modeRegression
			}
		}
		modes = append(modes, m)
		if m == modeRegression {
			coeffs = append(coeffs, float32(b[0]))
			for _, s := range b[4-rank:] {
				coeffs = append(coeffs, float32(s))
			}
		}
		for z := range n[0] {
			for y := range n[1] {
				i := g.at(o[0]+z, o[1]+y, o[2])
				rowPred := g.rowPred(&b, z, y)
				for x, v := range src[i : i+n[2]] {
					var pred float64
					if m == modeLorenzo {
						pred = lorenzo(rec, &g, i+x)
					} else {
						pred = rowPred + b[3]*float64(x)
					}
					if sym, delta, ok := q.Encode(float64(v) - pred); ok {
						// On the float32 lane the bound must hold on the
						// narrowed value the consumer will read.
						if r := T(pred + delta); !narrow || math.Abs(float64(r)-float64(v)) <= absErr {
							symbols = append(symbols, sym)
							rec[i+x] = r
							continue
						}
					}
					symbols = append(symbols, quant.Escape)
					exact = append(exact, v)
					rec[i+x] = v
				}
			}
		}
	}

	// payload: header | modes | coeffs | exactCount | exact | huff
	buf := compress.AppendHeader(sc.payload[:0], magic[rank-2][l], shape, absErr)
	buf = append(buf, modes...)
	for _, cf := range coeffs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(cf))
	}
	buf = compress.AppendExact(buf, exact)
	buf = huffman.AppendEncode(buf, symbols)
	// retain grown capacity
	sc.src, sc.rec, sc.exact, sc.symbols = src, rec, exact, symbols
	sc.modes, sc.payload, sc.coeffs = modes, buf, coeffs
	return lossless.Compress(buf)
}

// maxBody is the longest payload body encode writes for a header h on
// lane T: a mode and at most rank+1 coefficients per block, every
// sample escaped, and the symbols' longest Huffman stream.
func maxBody[T field.Elem](h compress.Header) int {
	g := newGeom(h.Shape)
	return g.numBlocks()*(1+4*(g.rank+1)) + 4 + field.ElemBytes[T]()*h.Len + huffman.MaxEncodedLen(h.Len)
}

// decode reconstructs a rank-`rank` field on lane T, into dst when the
// caller gave one (compress.Dst), rejecting streams of another rank or
// lane. It replays encode's reconstruction mirror
// exactly — same padded layout, same predictor arithmetic — so the
// output equals the compressor's mirror bit for bit.
func decode[T field.Elem](data []byte, rank int, dst []*field.Of[T]) (*field.Of[T], error) {
	l := compress.Lane[T]()
	p, err := compress.Inflate(data, magic[rank-2][l], rank, maxBody[T])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	defer p.Release()
	h, body := p.Header, p.Body
	g := newGeom(h.Shape)
	nBlocks := g.numBlocks()
	if len(body) < nBlocks {
		return nil, ErrCorrupt
	}
	modes, body := body[:nBlocks], body[nBlocks:]
	nReg := 0
	for _, m := range modes {
		switch m {
		case modeRegression:
			nReg++
		case modeLorenzo:
		default:
			return nil, ErrCorrupt
		}
	}
	nc := rank + 1
	if len(body) < 4*nc*nReg+4 {
		return nil, ErrCorrupt
	}
	coeffs := make([]float64, nc*nReg)
	for i := range coeffs {
		coeffs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
	}
	exact, body, ok := compress.Exact[T](body[4*len(coeffs):])
	if !ok {
		return nil, ErrCorrupt
	}
	sc := pools[l].Get().(*scratch[T])
	defer pools[l].Put(sc)
	symbols, err := huffman.DecodeInto(sc.symbols, body)
	if err != nil {
		return nil, fmt.Errorf("szlike: %w", err)
	}
	sc.symbols = symbols
	if len(symbols) != h.Len {
		return nil, ErrCorrupt
	}

	q := quant.New(h.AbsErr)
	rec := zeroed(sc.rec, g.padded)
	sc.rec = rec
	si, ei, ci := 0, 0, 0
	for bi := range nBlocks {
		o, n := g.blockAt(bi)
		var b [4]float64
		m := modes[bi]
		if m == modeRegression {
			b[0] = coeffs[ci]
			copy(b[4-rank:], coeffs[ci+1:ci+nc])
			ci += nc
		}
		for z := range n[0] {
			for y := range n[1] {
				i := g.at(o[0]+z, o[1]+y, o[2])
				rowPred := g.rowPred(&b, z, y)
				for x, sym := range symbols[si : si+n[2]] {
					if sym == quant.Escape {
						if ei >= len(exact) {
							return nil, ErrCorrupt
						}
						rec[i+x] = exact[ei]
						ei++
						continue
					}
					var pred float64
					if m == modeLorenzo {
						pred = lorenzo(rec, &g, i+x)
					} else {
						pred = rowPred + b[3]*float64(x)
					}
					rec[i+x] = T(pred + q.Decode(sym))
				}
				si += n[2]
			}
		}
	}
	if ei != len(exact) {
		return nil, ErrCorrupt
	}
	out, err := compress.Dst(h, dst)
	if err != nil {
		return nil, err
	}
	interior(&g, out.Data, rec, false)
	return out, nil
}
