package variogram

// FFT exact engine, one algorithm for both element lanes and both
// sources (Marcotte,
// "Fast variogram computation with FFT", Computers & Geosciences 22(10),
// 1996). The exhaustive scan costs O(N·L^d): every lag offset re-sweeps
// the whole array. Its per-offset sums are correlations, so they can be
// had at once from one zero-padded autocorrelation:
//
//	S(h) = Σ_x (z(x) − z(x+h))²   over x with both ends in the domain
//	     = w(B∩(B−h)) + w(B∩(B+h)) − 2·c_zz(h)
//	N(h) = Π_k (dim_k − |h_k|)
//
// where B is the field's box, w(R) = Σ_{x∈R} z²(x) is a box sum of
// squares over a clipped rectangle, and c_zz(h) = Σ_x z(x)·z(x+h) is
// the linear autocorrelation. Three facts keep the transform side down
// to one forward and one inverse:
//
//  1. The field mean (computed in float64) is subtracted at embed.
//     S(h) is exactly shift-invariant, and centering removes the DC
//     mass that otherwise dominates |Z|² and cancels in the
//     w − 2·c_zz difference: uncentered, a unit-variance field with a
//     1e7 offset lost ~1e-2 relative accuracy in float64; centered it
//     stays at roundoff (~1e-14).
//  2. Pair counts on a dense box have the closed form N(h) above —
//     exactly what the direct scan counts — so no indicator-mask
//     transform is needed, and no count is ever rounded from a plane.
//  3. The box sums come from a float64 summed-area table of the
//     centered squares, 2^d corner reads per lag, so no z² transform
//     is needed either.
//
// What remains is forward(z centered) → |Z|² → inverse over one real
// staging plane (reused as the c_zz output) and one hermitian
// half-spectrum. Padding each extent to at least dim + MaxLag makes the
// circular autocorrelation linear for every |h_k| <= MaxLag. Both
// transforms do only the work the fold reads: the forward skips the
// lines of the plane that hold only padding, and the inverse computes
// only the axis-0 rows h₀ <= MaxLag, leaving the plane's rows past
// them unwritten (the plane is never cleared: the forward reads only
// the embedded field). Both lanes
// embed into the same float64 plane and complex128 spectrum, so a
// float32 field gives bit for bit the result of its exact widening to
// float64; the mean, the summed-area table, and every per-bin fold are
// float64 too. The table is built after the spectrum is released, so the
// peak is one plane plus the larger of the spectrum and the table
// (FFTPeakBytes).
//
// All of this is one slab kernel, fftSlab: the pairs whose base point
// lies in the first rows of a block. In RAM the block is the field and
// every row is a base row; the sharded engine (fftstream.go) runs the
// same kernel per axis-0 slab of a file, where the base rows and the
// block each take a forward and their cross-spectrum replaces |Z|².
//
// The per-offset results are folded into the same rounded-distance
// bins, in the same canonical enumeration order, as the direct scan,
// in one sweep over the offsets (sweep): an odometer over the leading
// axes, a loop over the last, one accumulator per bin. Pair counts
// agree exactly, float64 Gamma to roundoff (the equivalence tests pin
// 1e-9 relative, DC offsets to 1e7 included), and the result is
// bit-identical at any worker count.

import (
	"context"
	"math"
	"runtime"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
)

// slabPad returns the padded extents of an fftSlab call: base + maxLag
// on axis 0 (a base point's partner lies at most maxLag rows on),
// dim_k + maxLag on every other axis, each rounded up by fft.FastLen to
// an even 5-smooth length, the extents the transforms take.
func slabPad(dims []int, base, maxLag int) []int {
	pad := make([]int, len(dims))
	pad[0] = fft.FastLen(base + maxLag)
	for k := 1; k < len(dims); k++ {
		pad[k] = fft.FastLen(dims[k] + maxLag)
	}
	return pad
}

// slabPeakBytes is the transform working set of one fftSlab call on a
// block of the given shape whose first base rows are the base points,
// whatever the block's lane. The kernel holds one padded float64 plane
// (slabPad) throughout, and beside it first the half-spectra (complex128,
// 16 bytes per bin; one when base == dims[0], two otherwise) with
// the transform workers' line scratch, then the float64 summed-area
// table of Π (dim_k + 1) entries — never both. Line scratch is
// fft.LineScratchLen of the longest padded extent per worker (the
// lineGroup strided lines an axis pass gathers at once, plus the
// mixed-radix scratch of the line in flight), GOMAXPROCS workers,
// counted at twice its length for pool-bucket slack. The planes
// themselves are counted at their exact lengths: that is what a cold
// pool, or one recycling the kernel's own buffers, accounts.
func slabPeakBytes(dims []int, base, maxLag int) int64 {
	pad := slabPad(dims, base, maxLag)
	plane, table, longest := int64(1), int64(1), 0
	for k, d := range dims {
		plane *= int64(pad[k])
		table *= int64(d + 1)
		longest = max(longest, pad[k])
	}
	spectra := int64(1)
	if base < dims[0] {
		spectra = 2
	}
	spectrum := 16 * int64(fft.HalfLen(pad))
	lines := int64(runtime.GOMAXPROCS(0)) * 2 * int64(fft.LineScratchLen(longest)) * 16
	return 8*plane + max(spectra*spectrum+lines, 8*table)
}

// FFTPeakBytes is the transform working set of the in-RAM FFT exact
// engine on a field of the given shape, on either lane: one slab whose
// base rows are the whole field (slabPeakBytes), padded to
// P = Π FastLen(dim_k + L) elements. maxLag is Options.MaxLag as a
// caller would pass it: L is the cutoff the engine runs with, the
// default for maxLag <= 0 and clamped at the field's diagonal.
func FFTPeakBytes(shape []int, maxLag int) int64 {
	lag := Options{MaxLag: maxLag}.withDefaults(shape).MaxLag
	return slabPeakBytes(shape, shape[0], lag)
}

// fftScan computes the exact binned variogram of an in-RAM field
// through the identities above for either lane: one slab whose base
// rows are the whole field, shifted by the field mean.
func fftScan[T field.Elem](ctx context.Context, data []T, dims []int, mean float64, o Options) (*Empirical, error) {
	sum := make([]float64, o.MaxLag+1)
	cnt := make([]int64, o.MaxLag+1)
	if err := fftSlab(ctx, data, dims, dims[0], mean, o, sum, cnt); err != nil {
		return nil, err
	}
	return collect(sum, cnt), nil
}

// fftSlab adds to sum and cnt, per distance bin, every pair whose base
// point lies in the first base rows (along axis 0) of the block data
// (shape dims) and whose partner lies anywhere in the block; shift is
// subtracted from every value at embed. Canonical offsets have h₀ ≥ 0,
// so with z_a the block restricted to its base rows and z_b the whole
// block,
//
//	S(h) = w(A) + w(A+h) − 2·c_{z_a,z_b}(h)
//	N(h) = m · Π_{k>0} (dim_k − |h_k|),   m = min(base, dim₀ − h₀)
//
// where A is the box of base points with a partner at offset h (axis 0
// rows [0, m)). When base == dims[0] the cross-correlation is the
// autocorrelation: one forward transform, |Z|², one inverse — the
// in-RAM engine. Otherwise the base rows and the block take one
// forward each, conj(Z_a)·Z_b, one inverse. Axis 0 pads to
// FastLen(base + MaxLag): a base point's partner is at most MaxLag
// rows on, so the correlation never wraps.
//
// Cancellation is observed at stage boundaries — before each transform,
// before the table build, and once per leading offset row in the fold
// — so a dead context abandons the pipeline within one transform's
// duration, and every
// pooled buffer is released on the way out through the defers. Buffers
// are tight acquisitions, so a budgeted caller's accounting stays
// within twice slabPeakBytes even on a warm pool.
func fftSlab[T field.Elem](ctx context.Context, data []T, dims []int, base int, shift float64, o Options, sum []float64, cnt []int64) error {
	stage := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	nd := len(dims)
	nb := o.MaxLag
	pad := slabPad(dims, base, nb)
	total := 1
	for _, p := range pad {
		total *= p
	}

	// r is the one real staging plane: padded centered z in, the
	// correlation out. The forward transform reads only the embedded
	// corner and the inverse writes only the rows the fold reads, so
	// nothing else of it is ever cleared or read.
	r := fft.AcquireTight[float64](total)
	defer fft.Release(r)
	embed := func(rows int) []int {
		corner := append([]int{rows}, dims[1:]...)
		field.EachRun(dims, nil, pad, nil, corner, func(srcOff, dstOff, n int) bool {
			dst := r[dstOff : dstOff+n]
			for i, v := range data[srcOff : srcOff+n] {
				dst[i] = float64(v) - shift
			}
			return true
		})
		return corner
	}
	corner := embed(base)
	if err := stage(); err != nil {
		return err
	}
	half := fft.HalfLen(pad)
	spA := fft.AcquireTight[complex128](half)
	defer func() { fft.Release(spA) }()
	if err := fft.ForwardRealND(r, pad, corner, spA, o.Workers); err != nil {
		return err
	}
	if base == dims[0] {
		fft.AbsSq(spA)
	} else {
		corner = embed(dims[0])
		if err := stage(); err != nil {
			return err
		}
		spB := fft.AcquireTight[complex128](half)
		err := fft.ForwardRealND(r, pad, corner, spB, o.Workers)
		if err == nil {
			fft.MulConj(spA, spB)
		}
		fft.Release(spB)
		if err != nil {
			return err
		}
	}
	if err := stage(); err != nil {
		return err
	}
	czz := r // the padded field is spent; rows h₀ <= MaxLag of the correlation land in place
	if err := fft.InverseRealND(spA, pad, min(nb+1, pad[0]), czz, o.Workers); err != nil {
		return err
	}
	fft.Release(spA)
	spA = nil
	if err := stage(); err != nil {
		return err
	}

	// Summed-area table of centered z² over the block, extents
	// dims[k]+1 with zero borders at index 0 — the closed form for
	// every box sum.
	satDims := make([]int, nd)
	satStride := make([]int, nd)
	satTotal := 1
	for k := nd - 1; k >= 0; k-- {
		satDims[k] = dims[k] + 1
		satStride[k] = satTotal
		satTotal *= satDims[k]
	}
	sat := fft.AcquireTight[float64](satTotal)
	defer fft.Release(sat)
	buildCenteredSqSAT(data, dims, shift, sat, satDims, satStride)

	pStride := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		pStride[k] = acc
		acc *= pad[k]
	}
	f := sweep{
		ctx: ctx, dims: dims, pad: pad, base: base, nb: nb,
		czz: czz, sat: sat, satStride: satStride, pStride: pStride,
		sum: make([]float64, nb+1), cnt: make([]int64, nb+1),
		lo1: make([]int, nd), hi1: make([]int, nd),
		lo2: make([]int, nd), hi2: make([]int, nd),
		corners1: make([]int, 1<<(nd-1)), corners2: make([]int, 1<<(nd-1)),
		negative: make([]bool, 1<<(nd-1)),
	}
	if err := f.lead(0, 0, 1, 0, true); err != nil {
		return err
	}
	for b := range sum {
		sum[b] += f.sum[b]
		cnt[b] += f.cnt[b]
	}
	return nil
}

// sweep folds the per-offset correlations of one fftSlab call into
// distance bins in a single lexicographic walk over the canonical
// offsets: a recursive odometer over the leading axes (lead), and at
// each of its positions an inner loop over the last axis (row) with the
// leading-axis corners of both box sums computed once. Each bin
// accumulates its own terms, in the enumeration order of offsetsByBin
// and so of the direct scan; fftSlab adds the per-bin totals at the
// end. Only offsets with base points and partners in the block are
// visited: the pair count of every other offset is zero.
type sweep struct {
	ctx                context.Context
	dims, pad          []int
	base, nb           int
	czz, sat           []float64
	satStride, pStride []int
	sum                []float64
	cnt                []int64
	lo1, hi1, lo2, hi2 []int  // axis ranges of the boxes A and A+h
	corners1, corners2 []int  // leading corners of the two boxes, in mask order
	negative           []bool // whether a leading corner enters a box sum negatively
}

// axisSpan returns the pair count along axis k at offset component h
// and the axis ranges [lo1, hi1) of the base points A and [lo2, hi2) of
// their partners A+h. Axis 0 holds the block's first base rows as base
// points (h ≥ 0 there); every other axis, the whole extent.
func (f *sweep) axisSpan(k, h int) (n, lo1, hi1, lo2, hi2 int) {
	switch {
	case k == 0:
		n = min(f.base, f.dims[0]-h)
	case h < 0:
		n = f.dims[k] + h
	default:
		n = f.dims[k] - h
	}
	if h >= 0 {
		return n, 0, n, h, h + n
	}
	return n, -h, n - h, 0, n
}

// lead walks axis k of the leading odometer: partial is the squared
// length of the offset so far, n its pair count, idx its correlation
// index, zero whether every component so far is zero (a canonical
// offset's first nonzero component is positive).
func (f *sweep) lead(k, partial int, n int64, idx int, zero bool) error {
	last := len(f.dims) - 1
	if k == last {
		if f.ctx != nil {
			if err := f.ctx.Err(); err != nil {
				return err
			}
		}
		f.row(partial, n, idx, zero)
		return nil
	}
	hmax := min(isqrt(f.nb*f.nb-partial), f.dims[k]-1)
	lo := -hmax
	if zero {
		lo = 0
	}
	for h := lo; h <= hmax; h++ {
		m, lo1, hi1, lo2, hi2 := f.axisSpan(k, h)
		if m <= 0 {
			continue
		}
		f.lo1[k], f.hi1[k], f.lo2[k], f.hi2[k] = lo1, hi1, lo2, hi2
		at := h
		if h < 0 {
			at += f.pad[k]
		}
		if err := f.lead(k+1, partial+h*h, n*int64(m), idx+at*f.pStride[k], zero && h == 0); err != nil {
			return err
		}
	}
	return nil
}

// row runs the last axis at one leading position, with the leading
// corners of both boxes computed once for all of it.
func (f *sweep) row(partial int, n int64, idx int, zero bool) {
	last := len(f.dims) - 1
	for mask := range f.corners1 {
		off1, off2, bits := 0, 0, 0
		for k := 0; k < last; k++ {
			if mask>>uint(k)&1 != 0 {
				off1 += f.lo1[k] * f.satStride[k]
				off2 += f.lo2[k] * f.satStride[k]
				bits++
			} else {
				off1 += f.hi1[k] * f.satStride[k]
				off2 += f.hi2[k] * f.satStride[k]
			}
		}
		f.corners1[mask], f.corners2[mask], f.negative[mask] = off1, off2, bits&1 != 0
	}
	hmax := min(isqrt(f.nb*f.nb-partial), f.dims[last]-1)
	lo := -hmax
	if zero {
		lo = 1 // the zero offset is no pair
	}
	for h := lo; h <= hmax; h++ {
		m, lo1, hi1, lo2, hi2 := f.axisSpan(last, h)
		if m <= 0 {
			continue
		}
		at := h
		if h < 0 {
			at += f.pad[last]
		}
		d := boxSum(f.sat, f.corners1, f.negative, lo1, hi1) +
			boxSum(f.sat, f.corners2, f.negative, lo2, hi2) - 2*f.czz[idx+at]
		if d < 0 { // roundoff on (near-)constant fields
			d = 0
		}
		bin := int(math.Round(math.Sqrt(float64(partial + h*h))))
		f.sum[bin] += d
		f.cnt[bin] += n * int64(m)
	}
}

// boxSum evaluates a box sum by inclusion–exclusion on its 2^d
// summed-area corners, taken in mask order (bit k set: the corner sits
// at lo on axis k; an odd count of set bits subtracts it). The masks
// below 2^(d-1) are the leading corners at the last axis's hi, the
// rest the same corners at its lo, so given the leading corners'
// offsets and signs the sum adds the same terms in the same order as a
// sum over all 2^d masks.
func boxSum(sat []float64, corners []int, negative []bool, lo, hi int) float64 {
	var s float64
	for j, c := range corners {
		if negative[j] {
			s -= sat[c+hi]
		} else {
			s += sat[c+hi]
		}
	}
	for j, c := range corners {
		if negative[j] {
			s += sat[c+lo]
		} else {
			s -= sat[c+lo]
		}
	}
	return s
}

// isqrt returns floor(sqrt(x)) for x >= 0.
func isqrt(x int) int {
	r := int(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// buildCenteredSqSAT fills sat (extents satDims[k] = dims[k]+1, with
// zero borders at index 0 on every axis) with the inclusive prefix
// sums of (z−mean)². Every element is written — pooled buffers carry
// unspecified contents — and the axis passes run over contiguous
// blocks, so the build is d linear sweeps.
func buildCenteredSqSAT[T field.Elem](data []T, dims []int, mean float64, sat []float64, satDims, satStride []int) {
	clear(sat)
	nd := len(satDims)
	rowLen := dims[nd-1]
	idx := make([]int, nd)
	src := 0
	for {
		dst := satStride[nd-1]
		for k := 0; k < nd-1; k++ {
			dst += (idx[k] + 1) * satStride[k]
		}
		for i, v := range data[src : src+rowLen] {
			d := float64(v) - mean
			sat[dst+i] = d * d
		}
		src += rowLen
		k := nd - 2
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < dims[k] {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	for k := nd - 1; k >= 0; k-- {
		stride := satStride[k]
		block := stride * satDims[k]
		for base := 0; base < len(sat); base += block {
			for j := stride; j < block; j++ {
				sat[base+j] += sat[base+j-stride]
			}
		}
	}
}
