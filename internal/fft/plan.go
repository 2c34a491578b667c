package fft

// Line plans: per-length transform strategies for the 5-smooth
// lengths (2^a·3^b·5^c) the callers pad to. Every 1D line transform
// routes through a cached plan chosen by length:
//
//   - power of two        → the radix-2 butterfly core (transformTw)
//   - 5-smooth composite  → mixed-radix Cooley–Tukey: the factors 3 and
//     5 are peeled recursively (generic small-r DFT combine over roots
//     read once per call, unrolled for r = 3), the residual
//     power-of-two block runs the radix-2 core, its first pass fused
//     into a bit-reversed gather (leaf)
//
// product rejects every other length before a plan is asked for.
//
// Plans are immutable once built and cached per length, so
// repeated axis passes over the same extents (the variogram engine, the
// samplers) pay the trigonometry once. Per-line scratch comes from the
// shared buffer pool.
//
// The output bits are a contract: kernelref_test.go keeps the plain
// one-pass-per-stage kernels as references, and every length class must
// match them bit for bit, so a faster schedule may reorder
// memory passes but never a product or a sum.

import "sync"

// FastLen returns the smallest even 5-smooth (2^a·3^b·5^c, a >= 1)
// length >= n — the preferred padded extent for the real-input engine:
// within a few percent of n (no power-of-two doubling) while keeping
// every axis on the fast mixed-radix path, and even as the last-axis
// real transform requires (it packs two reals per complex sample).
func FastLen(n int) int {
	m := max(n, 2)
	for m%2 != 0 || !smooth5(m) {
		m++
	}
	return m
}

// smooth5 reports whether n >= 1 has no prime factor above 5.
func smooth5(n int) bool {
	for _, f := range []int{2, 3, 5} {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

type planKind uint8

const (
	planPow2 planKind = iota
	planMixed
)

// linePlan holds everything needed to transform one line of its length.
type linePlan struct {
	n    int
	kind planKind

	// pow2: w is the half table of transformTw.
	// mixed: w is the full table w[t] = exp(-2πi t/n); pw is the half
	// table of the residual power-of-two block.
	w       twiddle
	factors []int // mixed: odd prime factors, in dividing order
	pw      twiddle
}

var planCache sync.Map // length -> *linePlan

func planFor(n int) *linePlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*linePlan)
	}
	v, _ := planCache.LoadOrStore(n, newPlan(n))
	return v.(*linePlan)
}

func newPlan(n int) *linePlan {
	if IsPow2(n) {
		return &linePlan{n: n, kind: planPow2, w: newTwiddle(n, n/2)}
	}
	// Peel the odd factors first and the power-of-two residue last, so
	// every recursion path bottoms out in one contiguous radix-2 block.
	pow2 := 1
	rest := n
	for rest%2 == 0 {
		pow2 *= 2
		rest /= 2
	}
	var odd []int
	for _, f := range []int{3, 5} {
		for rest%f == 0 {
			odd = append(odd, f)
			rest /= f
		}
	}
	return &linePlan{
		n: n, kind: planMixed,
		w: newTwiddle(n, n), factors: odd,
		pw: newTwiddle(pow2, pow2/2),
	}
}

// transform runs the unnormalized DFT (or unnormalized inverse DFT) of
// one line in place. len(x) must equal p.n.
func (p *linePlan) transform(x []complex128, inverse bool) {
	var tmp []complex128
	if p.kind == planMixed {
		tmp = Acquire[complex128](p.n)
		defer Release(tmp)
	}
	p.transformWith(x, tmp, inverse)
}

// transformWith is transform with the mixed-radix recursion's scratch
// given: tmp holds at least p.n elements for a mixed plan, and a
// power-of-two plan uses none.
func (p *linePlan) transformWith(x, tmp []complex128, inverse bool) {
	if p.kind == planPow2 {
		transformTw(x, p.w.dir(inverse))
		return
	}
	tmp = tmp[:p.n]
	copy(tmp, x)
	p.mixedRec(x, tmp, p.n, 1, 1, 1, p.factors, p.w.dir(inverse), p.pw.dir(inverse))
}

// leaf sets dst[0:n] to the power-of-two DFT of src[0], src[stride], …
// over the half table pw. It gathers in bit-reversed order and runs
// the first butterfly pass on the way — a lone radix-2 stage when the
// stage count is odd, else the first radix-2² pass — so no separate
// permutation pass is needed. In bit-reversed order, slots 2s and 2s+1
// hold src elements r and r+n/2 for r = rev(s) over log2(n/2) bits;
// slots 4s…4s+3 hold r, r+n/2, r+n/4 and r+3n/4 for r = rev(s) over
// log2(n/4) bits.
func leaf(dst, src []complex128, n, stride int, pw []complex128) {
	dst = dst[:n]
	if n == 1 {
		dst[0] = src[0]
		return
	}
	w0 := pw[0]
	if oddStages(n) {
		off, r := n/2*stride, 0
		for s := 0; s < n; s += 2 {
			a := src[r*stride]
			b := src[r*stride+off] * w0
			dst[s], dst[s+1] = a+b, a-b
			r = revInc(r, n/2)
		}
		butterflies(dst, pw, 2)
		return
	}
	// The first radix-2² pass's twiddles are w[0], w[0] and w[n/4].
	wq := pw[n/4]
	o1, o2, o3 := n/2*stride, n/4*stride, 3*n/4*stride
	r := 0
	for s := 0; s < n; s += 4 {
		i := r * stride
		a := src[i]
		b := src[i+o1] * w0
		y0, y1 := a+b, a-b
		a = src[i+o2]
		b = src[i+o3] * w0
		y2, y3 := a+b, a-b
		b = y2 * w0
		dst[s], dst[s+2] = y0+b, y0-b
		b = y3 * wq
		dst[s+1], dst[s+3] = y1+b, y1-b
		r = revInc(r, n/4)
	}
	butterflies(dst, pw, 4)
}

// mixedRec computes dst[0:n] = DFT_n of the strided sequence src[0],
// src[stride], …, peeling factors[0] by decimation in time; mult is
// p.n/n, the spacing of this level's twiddles in the full table w. With
// factors exhausted, n is the residual power-of-two block: a leaf over
// its half table pw. group is 1 for one line, or lineGroup for a group
// of interleaved lines (lockstep.go), whose every index counts rows of
// lineGroup elements.
func (p *linePlan) mixedRec(dst, src []complex128, n, stride, mult, group int, factors []int, w, pw []complex128) {
	if len(factors) == 0 {
		if group == 1 {
			leaf(dst, src, n, stride, pw)
		} else {
			leafGroup(dst, src, n, stride, pw)
		}
		return
	}
	r := factors[0]
	m := n / r
	for j2 := 0; j2 < r; j2++ {
		p.mixedRec(dst[group*j2*m:group*(j2+1)*m], src[group*j2*stride:], m, stride*r, mult*r, group, factors[1:], w, pw)
	}
	// Combine: for each residue k2, an r-point DFT of the twiddled
	// sub-spectra u_{j2} = S_{j2}[k2]·w_n^{j2·k2} lands in the slots
	// k2 + m·k1. The r-point DFT's roots w_r^{j2·k1} = w[(j2·k1 mod r)·n/r]
	// are read from the table once per call, into roots[k1·r+j2].
	var roots [25]complex128
	rs := p.n / r
	for k1 := 0; k1 < r; k1++ {
		for j2 := 0; j2 < r; j2++ {
			roots[k1*r+j2] = w[(j2*k1%r)*rs]
		}
	}
	switch {
	case r == 3 && group == 1:
		combine3(dst[:3*m], m, mult, w, &roots)
	case r == 3:
		combine3Group(dst, m, mult, w, &roots)
	default:
		combine(dst, r, m, mult, group, w, &roots)
	}
}

// combine is mixedRec's combine for any r, over group interleaved
// lines (1 for one line): element k of line j is dst[group·k+j].
func combine(dst []complex128, r, m, mult, group int, w []complex128, roots *[25]complex128) {
	var u [5]complex128
	for k2 := 0; k2 < m; k2++ {
		for j := 0; j < group; j++ {
			for j2 := 0; j2 < r; j2++ {
				u[j2] = dst[group*(j2*m+k2)+j] * w[mult*j2*k2]
			}
			for k1 := 0; k1 < r; k1++ {
				row := roots[k1*r : k1*r+r]
				s := u[0]
				for j2 := 1; j2 < r; j2++ {
					s += u[j2] * row[j2]
				}
				dst[group*(k1*m+k2)+j] = s
			}
		}
	}
}

// combine3 is mixedRec's combine for r = 3 with the loops over j2 and
// k1 unrolled: the same products, each sum in the same order.
func combine3(dst []complex128, m, mult int, w []complex128, roots *[25]complex128) {
	d0, d1, d2 := dst[:m], dst[m:2*m], dst[2*m:3*m]
	r01, r02 := roots[1], roots[2]
	r11, r12 := roots[4], roots[5]
	r21, r22 := roots[7], roots[8]
	w0 := w[0]
	for k2 := range d0 {
		u0 := d0[k2] * w0
		u1 := d1[k2] * w[mult*k2]
		u2 := d2[k2] * w[2*mult*k2]
		d0[k2] = u0 + u1*r01 + u2*r02
		d1[k2] = u0 + u1*r11 + u2*r12
		d2[k2] = u0 + u1*r21 + u2*r22
	}
}
