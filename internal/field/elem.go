package field

// The element lanes and the shape machinery beneath Of: extent
// validation, stride computation, and the clipped-window odometer walk.

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

// stridesOf fills st (length = rank) with the element stride of each
// dimension, last dimension fastest, and returns it.
func stridesOf(shape, st []int) []int {
	acc := 1
	for k := len(shape) - 1; k >= 0; k-- {
		st[k] = acc
		acc *= shape[k]
	}
	return st
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
// allow, copies one contiguous last-dimension run at a time with a
// stack-allocated odometer (ranks <= 8), and returns the (possibly
// re-allocated) destination shape and data. S and D may differ —
// WindowIntoWide instantiates the float32→float64 pair to widen each
// window on the fly without materializing a full-size float64 copy of
// the field.
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
		ext[k] = h
		if origin[k]+h > shape[k] {
			ext[k] = shape[k] - origin[k]
		}
		n *= ext[k]
	}
	if cap(dstData) >= n {
		dstData = dstData[:n]
	} else {
		dstData = make([]D, n)
	}
	if n == 0 {
		return dstShape, dstData
	}
	var stBuf [8]int
	var st []int
	if d <= len(stBuf) {
		st = stridesOf(shape, stBuf[:d])
	} else {
		st = stridesOf(shape, make([]int, d))
	}
	var odo [8]int
	var outer []int
	if d-1 <= len(odo) {
		outer = odo[:d-1]
		for k := range outer {
			outer[k] = 0
		}
	} else {
		outer = make([]int, d-1)
	}
	inner := ext[d-1]
	for {
		src := origin[d-1]
		dstOff := 0
		for k := 0; k < d-1; k++ {
			src += (origin[k] + outer[k]) * st[k]
			dstOff = dstOff*ext[k] + outer[k]
		}
		dstOff *= inner
		srcRow := data[src : src+inner]
		dstRow := dstData[dstOff : dstOff+inner]
		for i := range srcRow {
			dstRow[i] = D(srcRow[i])
		}
		k := d - 2
		for ; k >= 0; k-- {
			outer[k]++
			if outer[k] < ext[k] {
				break
			}
			outer[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return dstShape, dstData
}
