package fft

// The lockstep line kernels (lockstep_amd64.s). Each runs over a group
// of lineGroup interleaved lines and needs AVX2 (cpufeat.AVX2); strides
// and lengths count rows, one element of every line of the group.

// radix22x4 is one pass of butterflies at half h over a group of
// n-point lines, with step = n/(4h).
//
//go:noescape
func radix22x4(x, w *complex128, n, h, step int)

// leafQuadsx4 is leaf's bit-reversed gather and first radix-2² pass
// over a group, for an n with an even stage count (n >= 4).
//
//go:noescape
func leafQuadsx4(dst, src *complex128, n, stride int, pw *complex128)

// leafPairsx4 is leaf's bit-reversed gather and lone radix-2 pass over
// a group, for an n with an odd stage count (n >= 2).
//
//go:noescape
func leafPairsx4(dst, src *complex128, n, stride int, pw *complex128)

// combine3x4 is combine3 over a group.
//
//go:noescape
func combine3x4(dst *complex128, m, mult int, w *complex128, roots *[25]complex128)
