package field

// The element lanes and the shape machinery beneath Of: extent
// validation and EachRun, the one walk over a box of a row-major array
// that window extraction, tile reads and the FFT zero-pad embed all
// copy through.

import (
	"fmt"
	"unsafe"
)

// Elem is the element type of the two compute lanes: float64 (Field)
// and float32 (Field32).
type Elem interface{ float32 | float64 }

// ElemBytes is the width of a T sample: 8 on the float64 lane, 4 on
// the float32 lane.
func ElemBytes[T Elem]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// asBytes views the elements of s as their bytes in memory order.
func asBytes[T Elem](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*ElemBytes[T]())
}

// asElems views b as the len(b)/ElemBytes[T]() values of T it holds in
// memory order. b must be aligned for T, as the pooled staging buffers
// and asBytes views are.
func asElems[T Elem](b []byte) []T {
	n := len(b) / ElemBytes[T]()
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// shapeProduct validates extents (non-negative) and returns the element
// count of a shape.
func shapeProduct(shape []int) (int, error) {
	n := 1
	for _, s := range shape {
		if s < 0 {
			return 0, fmt.Errorf("field: negative dimension in shape %v", shape)
		}
		n *= s
	}
	return n, nil
}

// Stats summarizes a field.
type Stats struct {
	Min, Max   float64
	Mean       float64
	Variance   float64 // population variance
	ValueRange float64 // Max - Min
}

// windowIntoData is the clipped-window extraction both lanes (and the
// widening cross-lane copy) share: it clips the h-edged hypercube at
// origin to shape, reuses dstShape/dstData storage when capacities
// allow, copies the window one EachRun run at a time, and returns the
// (possibly re-allocated) destination shape and data. S and D may
// differ — WindowIntoWide instantiates the float32→float64 pair to
// widen each window on the fly without materializing a full-size
// float64 copy of the field.
func windowIntoData[S, D Elem](shape []int, data []S, dstShape []int, dstData []D, origin []int, h int) ([]int, []D) {
	d := len(shape)
	if len(origin) != d {
		panic(fmt.Sprintf("field: window origin rank %d != field rank %d", len(origin), d))
	}
	if cap(dstShape) >= d {
		dstShape = dstShape[:d]
	} else {
		dstShape = make([]int, d)
	}
	ext := dstShape
	n := 1
	for k := range origin {
		if origin[k] < 0 || origin[k] >= shape[k] {
			panic(fmt.Sprintf("field: window origin %v outside shape %v", origin, shape))
		}
		ext[k] = min(h, shape[k]-origin[k])
		n *= ext[k]
	}
	if cap(dstData) >= n {
		dstData = dstData[:n]
	} else {
		dstData = make([]D, n)
	}
	EachRun(shape, origin, ext, nil, ext, func(src, dst, n int) bool {
		for i, v := range data[src : src+n] {
			dstData[dst+i] = D(v)
		}
		return true
	})
	return dstShape, dstData
}

// EachRun walks a box of extents ext placed at srcLo in a row-major
// array of shape src and at dstLo in one of shape dst (a nil corner is
// the origin), calling fn(srcOff, dstOff, n) once per run: n elements
// contiguous in both arrays, at those flat offsets, in row-major order.
// Every trailing axis the box covers whole in both arrays merges into
// the run above it, so a box of whole trailing planes is one run per
// index of the axes before them. fn returns false to stop the walk. A
// box with a zero extent has no runs; one that does not fit inside
// either array panics. Ranks up to 9 walk without allocating.
func EachRun(src, srcLo, dst, dstLo, ext []int, fn func(srcOff, dstOff, n int) bool) {
	d := len(ext)
	if len(src) != d || len(dst) != d || (srcLo != nil && len(srcLo) != d) || (dstLo != nil && len(dstLo) != d) {
		panic(fmt.Sprintf("field: box rank %d against arrays of rank %d and %d", d, len(src), len(dst)))
	}
	srcOff, dstOff, n := 0, 0, 1
	for k, e := range ext {
		s, t := 0, 0
		if srcLo != nil {
			s = srcLo[k]
		}
		if dstLo != nil {
			t = dstLo[k]
		}
		if e < 0 || s < 0 || s > src[k]-e || t < 0 || t > dst[k]-e {
			panic(fmt.Sprintf("field: box of extents %v outside array %v or %v", ext, src, dst))
		}
		srcOff = srcOff*src[k] + s
		dstOff = dstOff*dst[k] + t
		n *= e
	}
	if n == 0 {
		return
	}
	if d == 0 {
		fn(0, 0, 1)
		return
	}
	// Axes past r are covered whole in both arrays: a run is ext[r] of
	// their blocks, inner elements each in either array.
	r := d - 1
	for r > 0 && ext[r] == src[r] && ext[r] == dst[r] {
		r--
	}
	inner := 1
	for _, e := range ext[r+1:] {
		inner *= e
	}
	run := inner * ext[r]
	// An odometer over the axes before r places the runs; in each array
	// the step of axis k is the product of that array's extents after it.
	var idxBuf [8]int
	idx := idxBuf[:]
	if r > len(idxBuf) {
		idx = make([]int, r)
	}
	for {
		if !fn(srcOff, dstOff, run) {
			return
		}
		sStep, dStep := inner, inner
		k := r - 1
		for ; k >= 0; k-- {
			sStep *= src[k+1]
			dStep *= dst[k+1]
			if idx[k]++; idx[k] < ext[k] {
				srcOff += sStep
				dstOff += dStep
				break
			}
			idx[k] = 0
			srcOff -= (ext[k] - 1) * sStep
			dstOff -= (ext[k] - 1) * dStep
		}
		if k < 0 {
			return
		}
	}
}
