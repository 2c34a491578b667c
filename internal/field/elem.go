package field

// Element-generic shape/window/odometer machinery shared by the two
// storage lanes. Field (float64, the oracle lane) and Field32 (the
// float32 compute lane) are concrete structs, but everything
// shape-driven beneath them is written once here over
// the Elem constraint: extent validation, stride computation, the
// clipped-window odometer walk, tile enumeration, and the Welford
// summary (which accumulates in float64 for either lane).

import (
	"fmt"
	"math"
)

// Elem is the element-type constraint of the two compute lanes.
type Elem interface{ ~float32 | ~float64 }

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

// flatOffset maps an index tuple to its row-major offset, panicking on
// rank mismatch (bounds are left to the slice access).
func flatOffset(shape, idx []int) int {
	if len(idx) != len(shape) {
		panic(fmt.Sprintf("field: index rank %d != field rank %d", len(idx), len(shape)))
	}
	flat := 0
	for k, i := range idx {
		flat = flat*shape[k] + i
	}
	return flat
}

// sameExtents reports whether two shapes agree in rank and extents.
func sameExtents(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// Stats summarizes a field.
type Stats struct {
	Min, Max   float64
	Mean       float64
	Variance   float64 // population variance
	ValueRange float64 // Max - Min
}

// summarize is the one-pass Welford min/max/mean/variance shared by both
// lanes; accumulation is float64 regardless of T, so the float32 lane
// gets full-precision statistics from narrow samples.
func summarize[T Elem](data []T) Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(data) == 0 {
		return Stats{}
	}
	var mean, m2 float64
	for i, e := range data {
		v := float64(e)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	s.Mean = mean
	s.Variance = m2 / float64(len(data))
	s.ValueRange = s.Max - s.Min
	return s
}

// maxAbsDiffData returns max|a-b| (in float64) over two equal-length
// lanes of the same element type. A position where exactly one side is
// NaN differs by +Inf; two NaNs, like two equal infinities, do not
// differ, as a codec stores non-finite samples exactly.
func maxAbsDiffData[T Elem](a, b []T) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); !(d <= m) {
			if d == d {
				m = d
			} else if (a[i] != a[i]) != (b[i] != b[i]) {
				return math.Inf(1)
			}
		}
	}
	return m
}

// mseData returns the mean squared error between two equal-length lanes.
func mseData[T Elem](a, b []T) float64 {
	if len(a) == 0 {
		return 0
	}
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum / float64(len(a))
}

// windowIntoData is the clipped-window extraction both lanes (and the
// widening cross-lane copy) share: it clips the h-edged hypercube at
// origin to shape, reuses dstShape/dstData storage when capacities
// allow, copies one contiguous last-dimension run at a time with a
// stack-allocated odometer (ranks <= 8), and returns the (possibly
// re-allocated) destination shape and data. S and D may differ —
// Field32's WindowIntoWide instantiates the float32→float64 pair to
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

// tileOriginsOf enumerates the origin corner of every h-edged tile
// covering a shape, in lexicographic (slowest-dimension-first) order.
func tileOriginsOf(shape []int, h int) [][]int {
	if h <= 0 {
		panic("field: non-positive tile size")
	}
	d := len(shape)
	total := 1
	for _, s := range shape {
		total *= s
	}
	if d == 0 || total == 0 {
		return nil
	}
	origins := make([][]int, 0, numTilesOf(shape, h))
	cur := make([]int, d)
	for {
		origins = append(origins, append([]int(nil), cur...))
		k := d - 1
		for ; k >= 0; k-- {
			cur[k] += h
			if cur[k] < shape[k] {
				break
			}
			cur[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return origins
}

// numTilesOf returns how many h-edged tiles (including clipped edge
// tiles) cover a shape.
func numTilesOf(shape []int, h int) int {
	n := 1
	for _, s := range shape {
		n *= (s + h - 1) / h
	}
	return n
}
