// Package fft implements complex and real-input fast Fourier transforms
// of any rank over 5-smooth extents (1 or 2^a·3^b·5^c). It is the
// numerical engine behind the exact circulant-embedding Gaussian field
// sampler, which pads to NextPow2, and the variogram FFT fast path,
// which pads to FastLen. Power-of-two lengths run the radix-2 butterfly
// core (its stages fused in pairs into radix-2² passes), the other
// 5-smooth lengths a mixed-radix Cooley–Tukey plan (plan.go); any other
// extent is an error. Real-input fields additionally transform in
// half-spectrum form (realnd.go), halving the storage of every
// hermitian workload; their last extent must be even.
//
// There is one precision: spectra are complex128 and real planes
// float64. A float32 field is widened into a float64 plane by its
// caller; Go computes every single-precision complex product in float64
// anyway, so a narrow lane would only add rounding and time. Plans are
// cached per length.
//
// A strided axis pass takes its lines four at a time. On amd64 with
// AVX2 (cpufeat.AVX2, probed once at start-up) the four stay
// interleaved in the worker's scratch, element k of line j at
// g[4k+j], so gathering and scattering a row is one 64-byte copy, and
// are transformed in lockstep: one walk of the line plan, each twiddle
// broadcast to all four, with assembly for the radix-2² passes, the
// leaf's gather and the radix-3 combine (lockstep.go). The real
// transforms' last-axis passes pack and unpick four rows the same way.
// Every line runs the products and sums of the per-line Go path, each
// rounded, in the same order, so the output bits do not depend on the
// path; the per-line path is the reference, and the only path
// elsewhere.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"lossycorr/internal/cpufeat"
	"lossycorr/internal/parallel"
)

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// twiddle is a table of roots of unity exp(-2πik/n) for k in [0, count)
// beside its conjugate: forward passes read fwd, inverse passes inv.
// Storing the conjugate costs one more table per plan and keeps the
// conjugation out of the butterflies: an inverse pass runs the same
// complex128 multiply-adds as a forward one, with no per-product
// negation of the twiddle's imaginary part in the innermost loop.
type twiddle struct{ fwd, inv []complex128 }

func newTwiddle(n, count int) twiddle {
	t := twiddle{make([]complex128, count), make([]complex128, count)}
	for k := range count {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		t.fwd[k] = complex(c, s)
		t.inv[k] = complex(c, -s)
	}
	return t
}

// dir returns the table for one transform direction.
func (t twiddle) dir(inverse bool) []complex128 {
	if inverse {
		return t.inv
	}
	return t.fwd
}

// transformTw is the radix-2 butterfly core over a precomputed half
// twiddle table (len(w) == len(x)/2; the conjugate table for an
// inverse). Factoring the table out lets an axis pass of an ND
// transform share one table across all of its lines.
func transformTw(x, w []complex128) {
	n := len(x)
	// bit-reversal permutation
	j := 0
	for i := 0; i < n; i++ {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
		j = revInc(j, n)
	}
	h := 1
	if oddStages(n) {
		w0 := w[0]
		for s := 0; s+1 < n; s += 2 {
			a := x[s]
			b := x[s+1] * w0
			x[s] = a + b
			x[s+1] = a - b
		}
		h = 2
	}
	butterflies(x, w, h)
}

// oddStages reports whether the power of two n has an odd log2.
func oddStages(n int) bool { return bits.Len(uint(n))%2 == 0 }

// revInc is the Gold–Rader step: for a power of two n and rev the
// reversal of log2(n) bits, it returns rev(rev(j)+1), so starting from
// 0 it walks rev(0), rev(1), … without reversing any index.
func revInc(j, n int) int {
	m := n >> 1
	for j&m != 0 {
		j ^= m
		m >>= 1
	}
	return j | m
}

// butterflies runs the radix-2 stages of halves h, 2h, … n/2 over x,
// in bit-reversed order with the stages below h done (h = 1 or 2 for
// transformTw, 2 or 4 after a leaf's gather). Each pair of stages —
// halves h and 2h — runs as one radix-2² pass over the four elements
// k, k+h, k+2h, k+3h of every 4h-block, which both stages touch and no
// other element reaches. Every element sees the same products and
// sums, in the same order, as in one pass per stage: the first
// stage's twiddle is w[2t] for t = k·n/4h, the second stage's w[t] and
// w[t+n/4], read from the same table.
func butterflies(x, w []complex128, h int) {
	n := len(x)
	q := n / 4
	for ; 4*h <= n; h *= 4 {
		step := n / (4 * h)
		for start := 0; start < n; start += 4 * h {
			x0 := x[start : start+h]
			x1 := x[start+h : start+2*h][:len(x0)]
			x2 := x[start+2*h : start+3*h][:len(x0)]
			x3 := x[start+3*h : start+4*h][:len(x0)]
			for k := range x0 {
				t := k * step
				w1 := w[2*t]
				a := x0[k]
				b := x1[k] * w1
				y0, y1 := a+b, a-b
				a = x2[k]
				b = x3[k] * w1
				y2, y3 := a+b, a-b
				b = y2 * w[t]
				x0[k], x2[k] = y0+b, y0-b
				b = y3 * w[t+q]
				x1[k], x3[k] = y1+b, y1-b
			}
		}
	}
}

// ForwardND computes the in-place unnormalized forward DFT of a
// row-major buffer of any rank and 5-smooth extents. Each axis pass
// runs its independent lines on the shared worker pool (workers <= 0
// means GOMAXPROCS); line transforms write disjoint regions, so the
// result is bit-identical at any worker count.
func ForwardND(x []complex128, dims []int, workers int) error {
	return transformND(x, dims, workers, false)
}

// InverseND computes the normalized in-place inverse ND DFT so that
// InverseND(ForwardND(x)) == x.
func InverseND(x []complex128, dims []int, workers int) error {
	if err := transformND(x, dims, workers, true); err != nil {
		return err
	}
	inv := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= inv
	}
	return nil
}

func transformND(x []complex128, dims []int, workers int, inverse bool) error {
	n, err := product(dims)
	if err != nil {
		return err
	}
	if len(x) != n {
		return fmt.Errorf("fft: buffer length %d != product of %v", len(x), dims)
	}
	for axis := len(dims) - 1; axis >= 0; axis-- {
		axisPass(x, dims, dims, axis, workers, inverse)
	}
	return nil
}

// product returns the element count of dims, rejecting extents that
// are not positive and 5-smooth: the plans cover no other length.
func product(dims []int) (int, error) {
	n := 1
	for _, d := range dims {
		if d < 1 {
			return 0, fmt.Errorf("fft: extent %d is not positive", d)
		}
		if !smooth5(d) {
			return 0, fmt.Errorf("fft: extent %d is not 5-smooth (2^a·3^b·5^c)", d)
		}
		n *= d
	}
	return n, nil
}

// lineGroup is the number of adjacent strided lines an axis pass
// gathers at once: four complex128 values, one 64-byte cache line, are
// read per stride step instead of one. It is also the width of a
// lockstep group (lockstep.go).
const lineGroup = 4

// LineScratchLen bounds the complex128 line scratch one transform
// worker holds at a time on lines of length at most n: a group of
// lineGroup lines, and as much again for the group's transform (the
// lockstep path's output, or the mixed-radix recursion's scratch of
// the one line in flight).
func LineScratchLen(n int) int { return 2 * lineGroup * n }

// axisPass transforms the lines of x along the given axis whose
// coordinates on every earlier axis k lie inside the leading corner
// lim (lim[k] <= dims[k]; pass dims to transform every line); the
// other lines are left as they are. The plan (twiddle tables,
// factorization) is cached per length and shared (read-only) by all
// lines. Lines along the last axis are contiguous and transform in
// place. Other axes take lineGroup adjacent strided lines at a time
// into a per-span scratch: with AVX2 they stay interleaved and are
// transformed in lockstep (lockstep.go), otherwise, and in a group
// narrower than lineGroup, they are gathered one line after another
// and transformed one by one. Each line's arithmetic is the same
// whatever its group, span or path, so the result is bit-identical at
// any worker count and on any CPU.
func axisPass(x []complex128, dims, lim []int, axis, workers int, inverse bool) {
	d := dims[axis]
	if d <= 1 {
		return
	}
	p := planFor(d)
	stride := 1
	for k := axis + 1; k < len(dims); k++ {
		stride *= dims[k]
	}
	outer := 1
	for _, l := range lim[:axis] {
		outer *= l
	}
	if axis == len(dims)-1 {
		parallel.For(outer, workers, func(q int) {
			o := cornerIndex(q, dims[:axis], lim[:axis])
			p.transform(x[o*d:(o+1)*d], inverse)
		})
		return
	}
	// Strided lines: line (o, i) starts at o*d*stride + i, elements
	// stride apart; group g of outer block o holds lines i = g·lineGroup
	// on, at most lineGroup of them.
	groups := (stride + lineGroup - 1) / lineGroup
	forLineSpans(outer*groups, workers, LineScratchLen(d), func(scratch []complex128, u int) {
		o := cornerIndex(u/groups, dims[:axis], lim[:axis])
		i := u % groups * lineGroup
		w := min(lineGroup, stride-i)
		base := o*d*stride + i
		lines, tmp := scratch[:lineGroup*d], scratch[lineGroup*d:]
		if w == lineGroup && cpufeat.AVX2 {
			for k := 0; k < d; k++ {
				copyRow(lines[lineGroup*k:], x[base+k*stride:])
			}
			p.transformGroup(tmp, lines, inverse)
			for k := 0; k < d; k++ {
				copyRow(x[base+k*stride:], tmp[lineGroup*k:])
			}
			return
		}
		for k := 0; k < d; k++ {
			for j, v := range x[base+k*stride : base+k*stride+w] {
				lines[j*d+k] = v
			}
		}
		for j := 0; j < w; j++ {
			p.transformWith(lines[j*d:(j+1)*d], tmp, inverse)
		}
		for k := 0; k < d; k++ {
			row := x[base+k*stride : base+k*stride+w]
			for j := range row {
				row[j] = lines[j*d+k]
			}
		}
	})
}

// copyRow copies one row of a group, lineGroup elements, from src to
// dst, element by element: a copy of the whole row would call
// runtime.memmove once per row.
func copyRow(dst, src []complex128) {
	d, s := dst[:lineGroup], src[:lineGroup]
	d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
}

// cornerIndex maps q, the row-major index of a point of the box lim, to
// the row-major index of the same point in the box dims (lim[k] <=
// dims[k]): the q-th line of a pass pruned to the leading corner lim.
func cornerIndex(q int, dims, lim []int) int {
	o, scale := 0, 1
	for k := len(lim) - 1; k >= 0; k-- {
		o += q % lim[k] * scale
		q /= lim[k]
		scale *= dims[k]
	}
	return o
}

// forLineSpans splits `lines` into at most `workers` contiguous spans
// on the shared pool, hands each span one pooled complex scratch of
// length scratchLen, and calls fn once per line — the fan-out of every
// strided axis pass and last-axis real<->complex pass. Per-line work is
// independent and span boundaries don't affect arithmetic, so results
// are bit-identical at any worker count.
func forLineSpans(lines, workers, scratchLen int, fn func(y []complex128, line int)) {
	spans := parallel.Resolve(workers, lines)
	per := (lines + spans - 1) / spans
	parallel.For(spans, spans, func(s int) {
		lo, hi := s*per, min((s+1)*per, lines)
		if lo >= hi {
			return
		}
		y := Acquire[complex128](scratchLen)
		defer Release(y)
		for line := lo; line < hi; line++ {
			fn(y, line)
		}
	})
}
