package fft

import (
	"fmt"
	"math"
	"testing"
)

// prunedCases pair padded real-transform extents with the leading
// corner that holds data, across ranks 1–3: odd corner extents, a unit
// axis, a corner filling some axes whole, and an empty corner.
var prunedCases = []struct{ dims, data []int }{
	{[]int{30}, []int{17}},
	{[]int{64}, []int{64}},
	{[]int{12, 10}, []int{7, 5}},
	{[]int{16, 20}, []int{16, 11}},
	{[]int{96, 50}, []int{64, 37}},
	{[]int{12, 10}, []int{0, 10}},
	{[]int{24, 18, 10}, []int{13, 9, 7}},
	{[]int{8, 4, 16}, []int{5, 4, 9}},
	{[]int{20, 1, 30}, []int{11, 1, 17}},
}

// TestPrunedForwardMatchesFull pins the pruned forward transform to the
// full forward transform of the zero-padded plane: every bin equal
// under ==, which lets a zero differ in sign only. The plane holds NaN
// outside the corner, so any read there shows.
func TestPrunedForwardMatchesFull(t *testing.T) {
	for ci, tc := range prunedCases {
		total, _ := product(tc.dims)
		padded := make([]float64, total)
		src := make([]float64, total)
		for i := range src {
			src[i] = math.NaN()
		}
		vals := randReal(total, uint64(500+ci))
		for i := range padded {
			if inCorner(i, tc.dims, tc.data) {
				padded[i], src[i] = vals[i], vals[i]
			}
		}
		for _, workers := range []int{1, 4} {
			want := make([]complex128, HalfLen(tc.dims))
			if err := ForwardRealND(padded, tc.dims, tc.dims, want, workers); err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, len(want))
			for i := range got {
				got[i] = complex(math.NaN(), math.NaN())
			}
			if err := ForwardRealND(src, tc.dims, tc.data, got, workers); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dims %v corner %v workers %d: bin %d is %v, want %v",
						tc.dims, tc.data, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPrunedInverseKeepsRows pins the pruned inverse: its first rows
// rows along axis 0 are bit-identical to those of a whole inverse, and
// it writes nothing past them (a rank-1 line is written whole).
func TestPrunedInverseKeepsRows(t *testing.T) {
	for ci, tc := range prunedCases {
		dims := tc.dims
		total, _ := product(dims)
		spec := make([]complex128, HalfLen(dims))
		if err := ForwardRealND(randReal(total, uint64(600+ci)), dims, dims, spec, 1); err != nil {
			t.Fatal(err)
		}
		AbsSq(spec)
		for _, workers := range []int{1, 4} {
			want := make([]float64, total)
			if err := InverseRealND(append([]complex128(nil), spec...), dims, dims[0], want, workers); err != nil {
				t.Fatal(err)
			}
			for _, rows := range []int{0, 1, (dims[0] + 1) / 2, dims[0]} {
				label := fmt.Sprintf("dims %v rows %d workers %d", dims, rows, workers)
				got := make([]float64, total)
				for i := range got {
					got[i] = math.NaN()
				}
				if err := InverseRealND(append([]complex128(nil), spec...), dims, rows, got, workers); err != nil {
					t.Fatal(err)
				}
				written := total / dims[0] * rows
				if len(dims) == 1 {
					written = total
				}
				for i := range got {
					switch {
					case i < written && math.Float64bits(got[i]) != math.Float64bits(want[i]):
						t.Fatalf("%s: element %d is %v, want %v", label, i, got[i], want[i])
					case i >= written && !math.IsNaN(got[i]):
						t.Fatalf("%s: element %d past the kept rows was written (%v)", label, i, got[i])
					}
				}
			}
		}
	}
}

// TestPrunedRejectsBadCorners: a data corner of the wrong rank or past
// the extents, or an inverse row count outside [0, dims[0]], is an
// error.
func TestPrunedRejectsBadCorners(t *testing.T) {
	dims := []int{12, 10}
	src := make([]float64, 120)
	spec := make([]complex128, HalfLen(dims))
	for _, data := range [][]int{{12}, {13, 10}, {12, 11}, {-1, 10}} {
		if err := ForwardRealND(src, dims, data, spec, 1); err == nil {
			t.Errorf("ForwardRealND accepted corner %v of %v", data, dims)
		}
	}
	for _, rows := range []int{-1, 13} {
		if err := InverseRealND(spec, dims, rows, src, 1); err == nil {
			t.Errorf("InverseRealND accepted %d rows of %v", rows, dims)
		}
	}
}
