package fft

// Reference line kernel: the radix-2 butterfly core and the mixed-radix
// recursion as they stood before the fused radix-2² passes, kept
// verbatim (bar their names) as the oracle the current kernel must
// reproduce bit for bit. The current kernel runs the same butterflies,
// with every product and sum in the same order, in fewer memory passes;
// any differing bit here means the arithmetic changed, not just the
// schedule.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"lossycorr/internal/parallel"
	"lossycorr/internal/xrand"
)

// transformTwRef is the reference radix-2 core: a bits.Reverse64
// permutation, then one pass per radix-2 stage.
func transformTwRef(x, w []complex128) {
	n := len(x)
	// bit-reversal permutation
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w[k*step]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// mixedRecRef is the reference mixed-radix recursion: a plain leaf
// gather before transformTwRef, and radix-r roots read from the full
// table per term.
func (p *linePlan) mixedRecRef(dst, src []complex128, n, stride, mult int, factors []int, w, pw []complex128) {
	if len(factors) == 0 {
		for j := 0; j < n; j++ {
			dst[j] = src[j*stride]
		}
		if n > 1 {
			transformTwRef(dst, pw)
		}
		return
	}
	r := factors[0]
	m := n / r
	for j2 := 0; j2 < r; j2++ {
		p.mixedRecRef(dst[j2*m:(j2+1)*m], src[j2*stride:], m, stride*r, mult*r, factors[1:], w, pw)
	}
	// Combine: for each residue k2, an r-point DFT of the twiddled
	// sub-spectra u_{j2} = S_{j2}[k2]·w_n^{j2·k2} lands in the slots
	// k2 + m·k1.
	var u [8]complex128
	rs := p.n / r
	for k2 := 0; k2 < m; k2++ {
		for j2 := 0; j2 < r; j2++ {
			u[j2] = dst[j2*m+k2] * w[mult*j2*k2]
		}
		for k1 := 0; k1 < r; k1++ {
			s := u[0]
			for j2 := 1; j2 < r; j2++ {
				s += u[j2] * w[(j2*k1%r)*rs]
			}
			dst[k1*m+k2] = s
		}
	}
}

// transformRef is linePlan.transform on the reference kernels.
func (p *linePlan) transformRef(x []complex128, inverse bool) {
	if p.kind == planPow2 {
		transformTwRef(x, p.w.dir(inverse))
		return
	}
	scratch := append([]complex128(nil), x...)
	p.mixedRecRef(x, scratch, p.n, 1, 1, p.factors, p.w.dir(inverse), p.pw.dir(inverse))
}

// kernelRefLengths lists every power of two from 1 to 4096 (odd and
// even stage counts) and every other 5-smooth length up to 2048 (so
// every FastLen value, 384 and 768 among them, the row and column
// lengths of a 512² spectral variogram, and every half of one).
func kernelRefLengths() []int {
	var ns []int
	for n := 1; n <= 4096; n <<= 1 {
		ns = append(ns, n)
	}
	for n := 3; n <= 2048; n++ {
		if smooth5(n) && !IsPow2(n) {
			ns = append(ns, n)
		}
	}
	return ns
}

// sameBits returns the first index where a and b differ in any bit,
// or -1.
func sameBits(a, b []complex128) int {
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return i
		}
	}
	return -1
}

// TestKernelMatchesReference pins the line kernel against the
// reference kernels bit for bit: every listed length, both directions.
func TestKernelMatchesReference(t *testing.T) {
	t.Run("c128", checkKernelRef)
}

func checkKernelRef(t *testing.T) {
	for _, n := range kernelRefLengths() {
		p := planFor(n)
		rng := xrand.New(uint64(n))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			p.transformRef(want, inverse)
			got := append([]complex128(nil), x...)
			p.transform(got, inverse)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d inverse=%v: differs at %d: %v vs %v", n, inverse, i, got[i], want[i])
			}
		}
	}
}

// TestAxisPassMatchesReference pins whole ND transforms — pooled line
// scratch, strided gathers, the worker fan-out — against line-by-line
// reference transforms.
func TestAxisPassMatchesReference(t *testing.T) {
	for _, dims := range [][]int{{768, 375}, {384, 6}, {15, 9, 5}, {25, 3, 27}, {64, 1, 45}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) { checkAxisRef(t, dims) })
	}
}

func checkAxisRef(t *testing.T, dims []int) {
	total, _ := product(dims)
	rng := xrand.New(uint64(total))
	x := make([]complex128, total)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, inverse := range []bool{false, true} {
		want := append([]complex128(nil), x...)
		for axis := len(dims) - 1; axis >= 0; axis-- {
			d, stride := dims[axis], 1
			for k := axis + 1; k < len(dims); k++ {
				stride *= dims[k]
			}
			p := planFor(d)
			line := make([]complex128, d)
			for l := 0; l < total/d; l++ {
				base := l/stride*d*stride + l%stride
				for k := range line {
					line[k] = want[base+k*stride]
				}
				p.transformRef(line, inverse)
				for k, v := range line {
					want[base+k*stride] = v
				}
			}
		}
		got := append([]complex128(nil), x...)
		if err := transformND(got, dims, 2, inverse); err != nil {
			t.Fatal(err)
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("dims %v inverse=%v: differs at %d: %v vs %v", dims, inverse, i, got[i], want[i])
		}
	}
}

// axisPassRef is the axis pass as it stood before strided lines were
// gathered lineGroup at a time, kept verbatim (bar its name) as the
// oracle of the blocked gather: one line gathered, transformed and
// scattered per strided line, every line transformed.
func axisPassRef(x []complex128, dims []int, axis, workers int, inverse bool) {
	d := dims[axis]
	if d <= 1 {
		return
	}
	p := planFor(d)
	stride := 1
	for k := axis + 1; k < len(dims); k++ {
		stride *= dims[k]
	}
	lines := len(x) / d
	if axis == len(dims)-1 {
		parallel.For(lines, workers, func(i int) {
			p.transform(x[i*d:(i+1)*d], inverse)
		})
		return
	}
	// Strided lines: line (o, i) starts at o*d*stride + i, elements
	// stride apart.
	forLineSpans(lines, workers, d, func(scratch []complex128, line int) {
		o, i := line/stride, line%stride
		base := o*d*stride + i
		for k := 0; k < d; k++ {
			scratch[k] = x[base+k*stride]
		}
		p.transform(scratch, inverse)
		for k := 0; k < d; k++ {
			x[base+k*stride] = scratch[k]
		}
	})
}

// TestAxisPassMatchesOneLineGather pins the blocked strided pass to the
// one-line gather bit for bit on every axis of ranks 1–3, strides that
// are and are not multiples of lineGroup included, both directions,
// workers 1 and 4, on each line path. Pruned to a leading corner, it
// transforms exactly the lines inside it, with the same bits, and
// leaves every other line as it was.
func TestAxisPassMatchesOneLineGather(t *testing.T) { eachLinePath(t, axisPassMatchesOneLineGather) }

func axisPassMatchesOneLineGather(t *testing.T) {
	for _, dims := range [][]int{{30}, {12, 10}, {9, 8}, {768, 375}, {15, 9, 5}, {25, 3, 27}, {64, 1, 45}, {6, 10, 12}} {
		total, _ := product(dims)
		x := randComplex(total, uint64(total))
		// The corner halves every extent, rounding up.
		lim := make([]int, len(dims))
		for k, d := range dims {
			lim[k] = (d + 1) / 2
		}
		for axis := range dims {
			for _, inverse := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					want := append([]complex128(nil), x...)
					axisPassRef(want, dims, axis, workers, inverse)
					got := append([]complex128(nil), x...)
					axisPass(got, dims, dims, axis, workers, inverse)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("dims %v axis %d inverse=%v workers %d: differs at %d: %v vs %v",
							dims, axis, inverse, workers, i, got[i], want[i])
					}

					// Element i lies on a line the pruned pass transforms
					// when its coordinates on the axes before axis, the
					// outer index i/block, are inside the corner.
					block, _ := product(dims[axis:])
					got = append(got[:0], x...)
					axisPass(got, dims, lim, axis, workers, inverse)
					for i := range got {
						ref := x[i]
						if inCorner(i/block, dims[:axis], lim[:axis]) {
							ref = want[i]
						}
						if sameBits(got[i:i+1], []complex128{ref}) >= 0 {
							t.Fatalf("dims %v corner %v axis %d inverse=%v workers %d: element %d is %v, want %v",
								dims, lim, axis, inverse, workers, i, got[i], ref)
						}
					}
				}
			}
		}
	}
}
