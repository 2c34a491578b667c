// Package cpufeat reports the CPU features the package assembly needs,
// probed once at start-up. The variogram's lockstep row kernel and the
// FFT's lockstep line kernels both read it, so there is one probe.
package cpufeat

// AVX2 reports whether the CPU and the operating system support AVX2:
// the CPU's AVX, OSXSAVE and AVX2 flags, and the XMM and YMM state
// enabled in XCR0. It is false off amd64. The kernels behind it give
// the same bits as their portable Go paths, so it changes only speed;
// tests clear it to run those paths as well.
var AVX2 = hasAVX2()
