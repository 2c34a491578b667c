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
// circular autocorrelation linear for every |h_k| <= MaxLag. Both lanes
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
// bins, in the same canonical enumeration order, as the direct scan:
// pair counts agree exactly, float64 Gamma to roundoff (the equivalence
// tests pin 1e-9 relative, DC offsets to 1e7 included), and the result
// is bit-identical at any worker count.

import (
	"context"
	"runtime"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
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
// table of Π (dim_k + 1) entries — never both. Line scratch is at most
// two complex lines of the longest padded extent per worker (span
// buffer plus mixed-radix scratch), GOMAXPROCS workers, each line
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
	lines := int64(runtime.GOMAXPROCS(0)) * 2 * (2 * int64(longest)) * 16
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
// before the table build, and per bin in the fold — so a dead context
// abandons the pipeline within one transform's duration, and every
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
	// correlation out.
	r := fft.AcquireTight[float64](total)
	defer fft.Release(r)
	embed := func(rows int) error {
		clear(r)
		return fft.ForEachEmbeddedRow(append([]int{rows}, dims[1:]...), pad, func(srcOff, dstOff, n int) {
			dst := r[dstOff : dstOff+n]
			for i, v := range data[srcOff : srcOff+n] {
				dst[i] = float64(v) - shift
			}
		})
	}
	if err := embed(base); err != nil {
		return err
	}
	if err := stage(); err != nil {
		return err
	}
	half := fft.HalfLen(pad)
	spA := fft.AcquireTight[complex128](half)
	defer func() { fft.Release(spA) }()
	if err := fft.ForwardRealND(r, pad, spA, o.Workers); err != nil {
		return err
	}
	if base == dims[0] {
		fft.AbsSq(spA)
	} else {
		if err := embed(dims[0]); err != nil {
			return err
		}
		if err := stage(); err != nil {
			return err
		}
		spB := fft.AcquireTight[complex128](half)
		err := fft.ForwardRealND(r, pad, spB, o.Workers)
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
	czz := r // the padded field is spent; the correlation lands in place
	if err := fft.InverseRealND(spA, pad, czz, o.Workers); err != nil {
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

	// Fold per-offset correlations into distance bins, in the same
	// canonical order as the direct scan, accumulating in float64.
	pStride := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		pStride[k] = acc
		acc *= pad[k]
	}
	bins := offsetsByBinCached(nd, nb)
	return parallel.ForCtx(ctx, nb+1, o.Workers, func(b int) {
		offs := bins[b]
		lo1 := make([]int, nd)
		hi1 := make([]int, nd)
		lo2 := make([]int, nd)
		hi2 := make([]int, nd)
		var s float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			// Axis 0: h₀ ≥ 0, base points in rows [0, m), partners
			// in [h₀, h₀+m).
			h0 := int(offs[p])
			m := min(base, dims[0]-h0)
			if m <= 0 {
				continue
			}
			idx := h0 * pStride[0]
			n := int64(m)
			lo1[0], hi1[0] = 0, m
			lo2[0], hi2[0] = h0, h0+m
			for k := 1; k < nd; k++ {
				h := int(offs[p+k])
				a := h
				if a < 0 {
					a = -a
				}
				if a >= dims[k] {
					n = 0
					break
				}
				n *= int64(dims[k] - a)
				// Axis ranges of the two overlap boxes: A and A+h.
				if h >= 0 {
					idx += h * pStride[k]
					lo1[k], hi1[k] = 0, dims[k]-h
					lo2[k], hi2[k] = h, dims[k]
				} else {
					idx += (pad[k] + h) * pStride[k]
					lo1[k], hi1[k] = a, dims[k]
					lo2[k], hi2[k] = 0, dims[k]-a
				}
			}
			if n <= 0 {
				continue
			}
			wm := boxSum64(sat, satStride, lo1, hi1) + boxSum64(sat, satStride, lo2, hi2)
			d := wm - 2*czz[idx]
			if d < 0 { // roundoff on (near-)constant fields
				d = 0
			}
			s += d
			c += n
		}
		sum[b] += s
		cnt[b] += c
	})
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

// boxSum64 evaluates the box sum over [lo, hi) per axis by
// inclusion–exclusion on the 2^d SAT corners.
func boxSum64(sat []float64, stride, lo, hi []int) float64 {
	nd := len(stride)
	var s float64
	for mask := 0; mask < 1<<uint(nd); mask++ {
		off, bits := 0, 0
		for k := 0; k < nd; k++ {
			if mask>>uint(k)&1 != 0 {
				off += lo[k] * stride[k]
				bits++
			} else {
				off += hi[k] * stride[k]
			}
		}
		if bits&1 != 0 {
			s -= sat[off]
		} else {
			s += sat[off]
		}
	}
	return s
}
