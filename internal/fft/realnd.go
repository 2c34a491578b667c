package fft

// Real-input transforms in half-spectrum form. A real field's spectrum
// is conjugate-symmetric, so only the last-axis bins k = 0..n/2 need to
// be stored: ForwardRealND produces (and InverseRealND consumes) a
// row-major array whose last extent is n/2+1 instead of n — half the
// complex storage of the full spectrum, and none of the redundant
// arithmetic.
//
// The last axis is the real<->complex boundary, and its extent must be
// even: the classic pack-two-reals trick packs the n real samples of a
// line into an n/2-point complex FFT whose output is unpicked into the
// n/2+1 hermitian bins with one extra twiddle pass — a real line
// transform at roughly half the cost of a complex one. Every other axis
// is an ordinary complex axis pass over the half-width array, so the
// whole pipeline inherits the bit-identical-at-any-worker-count
// property of axisPass.
//
// Both transforms are pruned to what a zero-padded correlation needs.
// The forward takes the leading corner of the plane that holds data and
// transforms no line lying wholly outside it (such a line is zero): in
// the last-axis pass every line with an earlier coordinate past the
// corner, and in each later pass every line with a coordinate past the
// corner on an axis not yet transformed. The inverse takes the number
// of axis-0 rows its caller reads: the axis-0 pass runs whole, and
// every later pass only on lines inside those rows. Every line that is
// transformed runs the same arithmetic as in an unpruned transform.

import (
	"fmt"
	"math/cmplx"

	"lossycorr/internal/cpufeat"
)

// HalfLen returns the element count of the half-spectrum of a real
// field with the given dims: the last axis stores dims[last]/2+1 bins,
// every other axis its full extent.
func HalfLen(dims []int) int {
	if len(dims) == 0 {
		return 0
	}
	n := dims[len(dims)-1]/2 + 1
	for _, d := range dims[:len(dims)-1] {
		n *= d
	}
	return n
}

// halfDims returns dims with the last extent replaced by its
// half-spectrum bin count.
func halfDims(dims []int) []int {
	hd := make([]int, len(dims))
	copy(hd, dims)
	hd[len(dims)-1] = dims[len(dims)-1]/2 + 1
	return hd
}

// checkReal validates a real<->half-spectrum transform's extents and
// buffers and returns its last extent and line count.
func checkReal(dims []int, realLen, halfLen int) (nx, lines int, err error) {
	if len(dims) == 0 {
		return 0, 0, fmt.Errorf("fft: rank-0 transform")
	}
	total, err := product(dims)
	if err != nil {
		return 0, 0, err
	}
	nx = dims[len(dims)-1]
	if nx%2 != 0 {
		return 0, 0, fmt.Errorf("fft: real transform's last extent %d is odd", nx)
	}
	if realLen != total {
		return 0, 0, fmt.Errorf("fft: real buffer length %d != product of %v", realLen, dims)
	}
	if halfLen != HalfLen(dims) {
		return 0, 0, fmt.Errorf("fft: half-spectrum length %d != HalfLen %d", halfLen, HalfLen(dims))
	}
	return nx, total / nx, nil
}

// ForwardRealND computes the unnormalized forward DFT, in
// half-spectrum form, of the real row-major field of shape dims
// (5-smooth extents, the last even) that equals src inside the leading
// corner data (data[k] <= dims[k] on every axis) and is zero outside
// it; len(src) is the product of dims and len(dst) HalfLen(dims). src
// is read only inside the corner, so the caller need not clear the
// rest of the plane. A line wholly outside the corner is zero and is
// not transformed: the last-axis pass writes zeros for it, and every
// later axis pass skips the lines whose earlier coordinates lie
// outside the corner, which hold zeros by then. dst is fully
// overwritten (its prior contents are irrelevant, so pooled buffers
// need no zeroing). Pass data = dims for an unpruned transform. Every
// value equals (==) that of the full transform of the zero-padded
// plane; a zero written for a skipped line may differ from it only in
// its sign. The result is bit-identical at any worker count.
func ForwardRealND(src []float64, dims, data []int, dst []complex128, workers int) error {
	nx, lines, err := checkReal(dims, len(src), len(dst))
	if err != nil {
		return err
	}
	if err := checkCorner(dims, data); err != nil {
		return err
	}
	// Pack pairs into an nx/2-point complex FFT, then unpick the
	// hermitian bins.
	last := len(dims) - 1
	hc, N := nx/2+1, nx/2
	p := planFor(N)
	rw := newTwiddle(nx, N+1).fwd
	kept := 1
	for _, d := range data[:last] {
		kept *= d
	}
	width := data[last]
	groups := (kept + lineGroup - 1) / lineGroup
	forLineSpans(groups, workers, LineScratchLen(N), func(y []complex128, g int) {
		q0 := g * lineGroup
		group, tmp := y[:lineGroup*N], y[lineGroup*N:]
		if kept-q0 >= lineGroup && cpufeat.AVX2 {
			for j := 0; j < lineGroup; j++ {
				li := cornerIndex(q0+j, dims[:last], data[:last])
				packPairs(group[j:], lineGroup, N, src[li*nx:li*nx+width])
			}
			p.transformGroup(tmp, group, false)
			for j := 0; j < lineGroup; j++ {
				li := cornerIndex(q0+j, dims[:last], data[:last])
				unpickHalf(dst[li*hc:(li+1)*hc], tmp[j:], lineGroup, rw)
			}
			return
		}
		line := group[:N]
		for q := q0; q < min(q0+lineGroup, kept); q++ {
			li := cornerIndex(q, dims[:last], data[:last])
			packPairs(line, 1, N, src[li*nx:li*nx+width])
			p.transformWith(line, tmp, false)
			unpickHalf(dst[li*hc:(li+1)*hc], line, 1, rw)
		}
	})
	if kept < lines {
		for li := 0; li < lines; li++ {
			if !inCorner(li, dims[:last], data[:last]) {
				clear(dst[li*hc : (li+1)*hc])
			}
		}
	}

	// Remaining axes: ordinary complex passes over the half-width array.
	hd := halfDims(dims)
	for axis := last - 1; axis >= 0; axis-- {
		axisPass(dst, hd, data, axis, workers, false)
	}
	return nil
}

// InverseRealND inverts ForwardRealND: spec is a half-spectrum of shape
// dims (it is clobbered), dst receives the real field and must have
// length = product of dims. Only the first rows rows along axis 0 are
// computed and written (0 <= rows <= dims[0]); the rest of dst is left
// as it was, and the axis passes after the first skip the lines that
// only feed it. A rank-1 field is one line and is written whole.
// Pass rows = dims[0] for the whole field. The normalization matches
// InverseND: InverseRealND(ForwardRealND(x)) == x up to roundoff. The
// written rows are bit-identical to those of a whole inverse, at any
// worker count.
func InverseRealND(spec []complex128, dims []int, rows int, dst []float64, workers int) error {
	nx, lines, err := checkReal(dims, len(dst), len(spec))
	if err != nil {
		return err
	}
	if rows < 0 || rows > dims[0] {
		return fmt.Errorf("fft: %d inverse rows outside [0, %d]", rows, dims[0])
	}
	hc := nx/2 + 1
	lead := lines // product of leading extents
	kept := lines
	if len(dims) > 1 {
		kept = lines / dims[0] * rows
	}

	// Leading axes first: unnormalized inverse passes at fixed last-axis
	// bin; per-line hermitian symmetry along the last axis survives them.
	hd := halfDims(dims)
	lim := append([]int{rows}, hd[1:]...)
	for axis := 0; axis < len(dims)-1; axis++ {
		axisPass(spec, hd, lim, axis, workers, true)
	}

	// Rebuild the packed N-point spectrum from the hermitian bins, one
	// unnormalized inverse FFT of length N per line, then unpack
	// interleaved reals.
	N := nx / 2
	p := planFor(N)
	rw := newTwiddle(nx, N+1).inv
	scale := 1 / (float64(N) * float64(lead))
	groups := (kept + lineGroup - 1) / lineGroup
	forLineSpans(groups, workers, LineScratchLen(N), func(y []complex128, g int) {
		l0 := g * lineGroup
		group, tmp := y[:lineGroup*N], y[lineGroup*N:]
		if kept-l0 >= lineGroup && cpufeat.AVX2 {
			for j := 0; j < lineGroup; j++ {
				li := l0 + j
				packHalf(group[j:], lineGroup, spec[li*hc:(li+1)*hc], rw)
			}
			p.transformGroup(tmp, group, true)
			for j := 0; j < lineGroup; j++ {
				li := l0 + j
				unpackReals(dst[li*nx:(li+1)*nx], tmp[j:], lineGroup, scale)
			}
			return
		}
		line := group[:N]
		for li := l0; li < min(l0+lineGroup, kept); li++ {
			packHalf(line, 1, spec[li*hc:(li+1)*hc], rw)
			p.transformWith(line, tmp, true)
			unpackReals(dst[li*nx:(li+1)*nx], line, 1, scale)
		}
	})
	return nil
}

// The four steps at the real<->complex boundary of a line. Each reads
// or writes the packed N-point line y at y[0], y[step], y[2·step], …:
// step 1 for one line, lineGroup for a line of a lockstep group.

// packPairs packs the real samples in, zero-extended to 2N, into the
// N-point complex line y: y[j] = in[2j] + i·in[2j+1].
func packPairs(y []complex128, step, N int, in []float64) {
	j := 0
	for ; 2*j+1 < len(in); j++ {
		y[j*step] = complex(in[2*j], in[2*j+1])
	}
	if 2*j < len(in) {
		y[j*step] = complex(in[2*j], 0)
		j++
	}
	for ; j < N; j++ {
		y[j*step] = 0
	}
}

// unpickHalf sets the N+1 hermitian bins out from the forward transform
// y of a packed line, with rw the forward half-length twiddles.
func unpickHalf(out, y []complex128, step int, rw []complex128) {
	N := len(out) - 1
	for k := 0; k <= N; k++ {
		yk, ynk := y[0], y[0] // bins 0 and N both unpick y[0]
		if k > 0 && k < N {
			yk, ynk = y[k*step], y[(N-k)*step]
		}
		cynk := cmplx.Conj(ynk)
		e := (yk + cynk) * 0.5
		o := (yk - cynk) * complex(0, -0.5)
		out[k] = e + rw[k]*o
	}
}

// packHalf rebuilds the packed N-point spectrum y from the N+1
// hermitian bins in, with rw the inverse half-length twiddles.
func packHalf(y []complex128, step int, in, rw []complex128) {
	N := len(in) - 1
	for k := 0; k < N; k++ {
		xk := in[k]
		cxnk := cmplx.Conj(in[N-k])
		e := (xk + cxnk) * 0.5
		o := (xk - cxnk) * 0.5 * rw[k]
		y[k*step] = e + o*complex(0, 1)
	}
}

// unpackReals scales the inverse transform y of a packed line into the
// interleaved reals out.
func unpackReals(out []float64, y []complex128, step int, scale float64) {
	for j := 0; j < len(out)/2; j++ {
		v := y[j*step]
		out[2*j] = real(v) * scale
		out[2*j+1] = imag(v) * scale
	}
}

// checkCorner validates the data corner of a pruned forward transform.
func checkCorner(dims, data []int) error {
	if len(data) != len(dims) {
		return fmt.Errorf("fft: data corner %v does not match rank of %v", data, dims)
	}
	for k, d := range data {
		if d < 0 || d > dims[k] {
			return fmt.Errorf("fft: data corner %v outside extents %v", data, dims)
		}
	}
	return nil
}

// inCorner reports whether the row-major index li of a point of the
// box dims lies inside its leading corner lim.
func inCorner(li int, dims, lim []int) bool {
	for k := len(dims) - 1; k >= 0; k-- {
		if li%dims[k] >= lim[k] {
			return false
		}
		li /= dims[k]
	}
	return true
}

// AbsSq sets a[i] = |a[i]|² — the autocorrelation spectrum of the real
// signal whose half-spectrum a holds. Real and even, hence hermitian: a
// valid InverseRealND input. Each square is rounded before the add, so
// no target fuses them.
func AbsSq(a []complex128) {
	for i, v := range a {
		r, j := real(v), imag(v)
		a[i] = complex(float64(r*r)+float64(j*j), 0) // fma:rounded
	}
}

// MulConj sets a[i] = conj(a[i])·b[i] — the cross-correlation spectrum
// of the two real signals whose half-spectra a and b hold. The product
// of a conjugated hermitian spectrum with a hermitian spectrum is
// hermitian, so the result is a valid InverseRealND input. It is the
// complex product written out by components, each product rounded
// before its add, so no target fuses them.
func MulConj(a, b []complex128) {
	for i, v := range a {
		vr, vi := real(v), -imag(v)
		br, bi := real(b[i]), imag(b[i])
		a[i] = complex(float64(vr*br)-float64(vi*bi), float64(vr*bi)+float64(vi*br)) // fma:rounded
	}
}
