package fft

import (
	"fmt"
	"testing"

	"lossycorr/internal/cpufeat"
)

// eachLinePath runs f as a subtest once per line path the transforms
// can take here: the lockstep groups where cpufeat.AVX2 is set, then
// the per-line path with it cleared. It restores cpufeat.AVX2
// afterwards.
func eachLinePath(t *testing.T, f func(t *testing.T)) {
	avx := cpufeat.AVX2
	defer func() { cpufeat.AVX2 = avx }()
	if avx {
		t.Run("lockstep", f)
	}
	cpufeat.AVX2 = false
	t.Run("perline", f)
}

// onLinePath runs fn with cpufeat.AVX2 set to on, then restores it.
func onLinePath(on bool, fn func()) {
	avx := cpufeat.AVX2
	defer func() { cpufeat.AVX2 = avx }()
	cpufeat.AVX2 = on
	fn()
}

// TestLockstepLinesMatchPerLine pins the lockstep kernels to the
// per-line path bit for bit: for every kernelRefLengths length and both
// directions, a group of four interleaved lines transforms to the
// per-line transform of each line, and leaves its input as it was.
func TestLockstepLinesMatchPerLine(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no lockstep kernels on this CPU or architecture")
	}
	for _, n := range kernelRefLengths() {
		p := planFor(n)
		src := randComplex(lineGroup*n, uint64(7000+n))
		orig := append([]complex128(nil), src...)
		tmp := make([]complex128, n)
		for _, inverse := range []bool{false, true} {
			dst := make([]complex128, lineGroup*n)
			p.transformGroup(dst, src, inverse)
			if i := sameBits(src, orig); i >= 0 {
				t.Fatalf("n=%d inverse=%v: source element %d changed", n, inverse, i)
			}
			for j := 0; j < lineGroup; j++ {
				want := make([]complex128, n)
				got := make([]complex128, n)
				for k := range want {
					want[k] = src[lineGroup*k+j]
					got[k] = dst[lineGroup*k+j]
				}
				p.transformWith(want, tmp, inverse)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("n=%d inverse=%v line %d: differs at %d: %v vs %v", n, inverse, j, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLockstepPassesMatchPerLine pins every pass that takes lockstep
// groups to the per-line path bit for bit: strided axis passes over
// groups of widths 1–4 (strides 1 to 8) on every kernelRefLengths
// length, ForwardND and InverseND at ranks 1–3, and both real
// transforms, pruned corners and rows included, at row counts that do
// and do not fill whole groups. Where cpufeat.AVX2 is clear both runs
// take the per-line path.
func TestLockstepPassesMatchPerLine(t *testing.T) {
	same := func(t *testing.T, what string, run func() []complex128) {
		t.Helper()
		var want, got []complex128
		onLinePath(false, func() { want = run() })
		onLinePath(cpufeat.AVX2, func() { got = run() })
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%s: differs at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
	for _, n := range kernelRefLengths() {
		for stride := 1; stride <= 2*lineGroup; stride++ {
			dims := []int{n, stride}
			x := randComplex(n*stride, uint64(n*stride))
			for _, inverse := range []bool{false, true} {
				same(t, fmt.Sprintf("axis pass %v inverse=%v", dims, inverse), func() []complex128 {
					y := append([]complex128(nil), x...)
					axisPass(y, dims, dims, 0, 2, inverse)
					return y
				})
			}
		}
	}
	for _, dims := range [][]int{{30}, {768, 9}, {12, 10}, {15, 9, 5}, {25, 3, 27}, {64, 1, 45}, {6, 10, 12}, {2, 16, 12}} {
		total, _ := product(dims)
		x := randComplex(total, uint64(total))
		for _, inverse := range []bool{false, true} {
			same(t, fmt.Sprintf("ND %v inverse=%v", dims, inverse), func() []complex128 {
				y := append([]complex128(nil), x...)
				nd := ForwardND
				if inverse {
					nd = InverseND
				}
				if err := nd(y, dims, 3); err != nil {
					t.Fatal(err)
				}
				return y
			})
		}
	}
	for ci, tc := range append(prunedCases, struct{ dims, data []int }{[]int{768, 768}, []int{512, 512}}) {
		total, _ := product(tc.dims)
		src := randReal(total, uint64(900+ci))
		same(t, fmt.Sprintf("real %v corner %v", tc.dims, tc.data), func() []complex128 {
			spec := make([]complex128, HalfLen(tc.dims))
			if err := ForwardRealND(src, tc.dims, tc.data, spec, 3); err != nil {
				t.Fatal(err)
			}
			out := append([]complex128(nil), spec...)
			for _, rows := range []int{tc.dims[0], (tc.dims[0] + 1) / 2, 5} {
				rows = min(rows, tc.dims[0])
				back := make([]float64, total)
				if err := InverseRealND(append([]complex128(nil), spec...), tc.dims, rows, back, 3); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(back); i += 2 {
					out = append(out, complex(back[i], back[i+1]))
				}
			}
			return out
		})
	}
}

// BenchmarkAxisPassStrided times one strided axis pass on each line
// path: the 768 rows of a 768×385 half-spectrum, the axis-0 pass of a
// 512² spectral variogram's forward and inverse transforms, one
// worker.
func BenchmarkAxisPassStrided(b *testing.B) {
	dims := []int{768, 385}
	x0 := randComplex(dims[0]*dims[1], 3)
	x := make([]complex128, len(x0))
	for _, path := range []struct {
		name string
		on   bool
	}{{"avx2", true}, {"go", false}} {
		if path.on && !cpufeat.AVX2 {
			continue
		}
		b.Run(path.name, func(b *testing.B) {
			onLinePath(path.on, func() {
				b.SetBytes(16 * int64(len(x)))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(x, x0)
					b.StartTimer()
					axisPass(x, dims, dims, 0, 1, false)
				}
			})
		})
	}
}
