//go:build !amd64

package fft

// The lockstep line kernels have no implementation here: the passes
// take the per-line path whenever cpufeat.AVX2 is clear, which it
// always is off amd64.

func radix22x4(x, w *complex128, n, h, step int) { panic("fft: lockstep kernel without AVX2") }

func leafQuadsx4(dst, src *complex128, n, stride int, pw *complex128) {
	panic("fft: lockstep kernel without AVX2")
}

func leafPairsx4(dst, src *complex128, n, stride int, pw *complex128) {
	panic("fft: lockstep kernel without AVX2")
}

func combine3x4(dst *complex128, m, mult int, w *complex128, roots *[25]complex128) {
	panic("fft: lockstep kernel without AVX2")
}
