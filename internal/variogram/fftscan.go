package variogram

// FFT exact engine, one algorithm for both element lanes (Marcotte,
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
// circular autocorrelation linear for every |h_k| <= MaxLag. The lanes
// differ only in plane width — float64/complex128 or float32/complex64,
// the type parameters of the generic transforms; the mean, the
// summed-area table, and every per-bin fold are float64 for both. The
// table is built after the spectrum is released, so the peak is one
// plane plus the larger of the spectrum and the table (FFTPeakBytes).
//
// The per-offset results are folded into the same rounded-distance
// bins, in the same canonical enumeration order, as the direct scan:
// pair counts agree exactly, float64 Gamma to roundoff (the equivalence
// tests pin 1e-9 relative, DC offsets to 1e7 included), and the result
// is bit-identical at any worker count.

import (
	"context"
	"fmt"
	"runtime"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// padLenFn chooses the padded extent for a required minimum length.
// FastLen keeps every axis on the mixed-radix fast path at a few
// percent of slack; tests swap in an identity to drive the exact
// (Bluestein) lengths through the full engine.
var padLenFn = fft.FastLen

// FFTPeakBytes is the transform working set of the FFT exact engine on
// a field of the given shape and lag cutoff (maxLag >= 1), for a lane
// whose real planes hold elemBytes-byte elements (8 for float64, 4 for
// float32). The engine holds one padded real plane of
// P = Π FastLen(dim_k + maxLag) elements throughout, and beside it first
// the half-spectrum (complex, 2·elemBytes per bin) with the transform
// workers' line scratch, then the float64 summed-area table of
// Π (dim_k + 1) entries — never both. Line scratch is at most two
// complex lines of the longest padded extent per worker (span buffer
// plus mixed-radix scratch), GOMAXPROCS workers, each line counted at
// twice its length for pool-bucket slack. The planes themselves are
// counted at their exact lengths: that is what a cold pool, or one
// recycling the engine's own buffers, accounts.
func FFTPeakBytes(shape []int, maxLag, elemBytes int) int64 {
	pad := make([]int, len(shape))
	plane, table, longest := int64(1), int64(1), 0
	for k, d := range shape {
		pad[k] = padLenFn(d + maxLag)
		plane *= int64(pad[k])
		table *= int64(d + 1)
		longest = max(longest, pad[k])
	}
	eb := int64(elemBytes)
	spectrum := 2 * eb * int64(fft.HalfLen(pad))
	lines := int64(runtime.GOMAXPROCS(0)) * 2 * (2 * int64(longest)) * 2 * eb
	return eb*plane + max(spectrum+lines, 8*table)
}

// fftScan computes the exact binned variogram through the identities
// above for either lane; mean is the field mean the embed subtracts.
//
// Cancellation is observed at stage boundaries — before each transform,
// before the table build, and per bin in the fold — so a dead context
// abandons the pipeline within one transform's duration, and every
// pooled buffer is released on the way out through the defers.
func fftScan[T fft.Float, C fft.Complex](ctx context.Context, data []T, dims []int, mean float64, o Options) (*Empirical, error) {
	stage := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	nd := len(dims)
	if nd < 1 {
		return nil, fmt.Errorf("variogram: rank-0 field")
	}
	nb := o.MaxLag
	pad := make([]int, nd)
	total := 1
	for k, d := range dims {
		pad[k] = padLenFn(d + nb)
		if pad[k] < d+nb {
			return nil, fmt.Errorf("variogram: padded extent %d < %d", pad[k], d+nb)
		}
		total *= pad[k]
	}

	// r is the one real staging plane: padded centered z in, the c_zz
	// autocorrelation out.
	r := fft.Acquire[T](total)
	defer fft.Release(r)
	clear(r)
	if err := fft.ForEachEmbeddedRow(dims, pad, func(srcOff, dstOff, n int) {
		dst := r[dstOff : dstOff+n]
		for i, v := range data[srcOff : srcOff+n] {
			dst[i] = T(float64(v) - mean)
		}
	}); err != nil {
		return nil, err
	}
	if err := stage(); err != nil {
		return nil, err
	}
	spZ := fft.Acquire[C](fft.HalfLen(pad))
	defer func() { fft.Release(spZ) }()
	if err := fft.ForwardRealND(r, pad, spZ, o.Workers); err != nil {
		return nil, err
	}
	fft.AbsSq[T](spZ)
	if err := stage(); err != nil {
		return nil, err
	}
	czz := r // the padded field is spent; the autocorrelation lands in place
	if err := fft.InverseRealND(spZ, pad, czz, o.Workers); err != nil {
		return nil, err
	}
	fft.Release(spZ)
	spZ = nil
	if err := stage(); err != nil {
		return nil, err
	}

	// Summed-area table of centered z², extents dims[k]+1 with zero
	// borders at index 0 — the closed form for every box sum.
	satDims := make([]int, nd)
	satStride := make([]int, nd)
	satTotal := 1
	for k := nd - 1; k >= 0; k-- {
		satDims[k] = dims[k] + 1
		satStride[k] = satTotal
		satTotal *= satDims[k]
	}
	sat := fft.Acquire[float64](satTotal)
	defer fft.Release(sat)
	buildCenteredSqSAT(data, dims, mean, sat, satDims, satStride)

	// Fold per-offset correlations into distance bins, in the same
	// canonical order as the direct scan, accumulating in float64.
	pStride := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		pStride[k] = acc
		acc *= pad[k]
	}
	bins := offsetsByBinCached(nd, nb)
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	if err := parallel.ForCtx(ctx, nb+1, o.Workers, func(b int) {
		offs := bins[b]
		lo1 := make([]int, nd)
		hi1 := make([]int, nd)
		lo2 := make([]int, nd)
		hi2 := make([]int, nd)
		var s float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			idx := 0
			n := int64(1)
			for k := 0; k < nd; k++ {
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
				// Axis ranges of the two overlap boxes: B∩(B−h) and
				// B∩(B+h).
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
			d := wm - 2*float64(czz[idx])
			if d < 0 { // roundoff on (near-)constant fields
				d = 0
			}
			s += d
			c += n
		}
		sum[b], cnt[b] = s, c
	}); err != nil {
		return nil, err
	}
	return collect(sum, cnt), nil
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
