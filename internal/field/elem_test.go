package field

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"lossycorr/internal/xrand"
)

// boxPairs lists, in row-major order of the box, the flat offsets of
// each of its elements in the src- and dst-shaped arrays, one element
// at a time from its index tuple: the oracle EachRun's runs must
// expand to. A nil corner is the origin.
func boxPairs(src, srcLo, dst, dstLo, ext []int) (s, t []int) {
	d := len(ext)
	n := 1
	for _, e := range ext {
		n *= e
	}
	idx := make([]int, d)
	for range n {
		a, b := 0, 0
		for k := range d {
			sl, tl := 0, 0
			if srcLo != nil {
				sl = srcLo[k]
			}
			if dstLo != nil {
				tl = dstLo[k]
			}
			a = a*src[k] + sl + idx[k]
			b = b*dst[k] + tl + idx[k]
		}
		s, t = append(s, a), append(t, b)
		for k := d - 1; k >= 0; k-- {
			if idx[k]++; idx[k] < ext[k] {
				break
			}
			idx[k] = 0
		}
	}
	return s, t
}

// mergedRuns is the run count the merge rule implies: one run per
// index of the axes before the longest trailing stretch of axes the box
// covers whole in both arrays, the axis just before that stretch
// folded into the run (the whole box is one run when every axis past
// the first is covered whole).
func mergedRuns(src, dst, ext []int) int {
	r := len(ext) - 1
	for r > 0 && ext[r] == src[r] && ext[r] == dst[r] {
		r--
	}
	runs := 1
	for _, e := range ext[:r] {
		runs *= e
	}
	return runs
}

// walk expands EachRun's runs into per-element offsets and counts them.
func walk(src, srcLo, dst, dstLo, ext []int) (s, t []int, runs int) {
	EachRun(src, srcLo, dst, dstLo, ext, func(a, b, n int) bool {
		for i := range n {
			s, t = append(s, a+i), append(t, b+i)
		}
		runs++
		return true
	})
	return s, t, runs
}

// TestEachRunMatchesIndexOracle checks the walker against a
// per-element index oracle on seeded boxes at random offsets in two
// arrays of different shapes, ranks 1–4 and 9: extent-1 axes, nil
// corners and boxes covering whole trailing axes included, the last
// with the run count the merge rule implies.
func TestEachRunMatchesIndexOracle(t *testing.T) {
	rng := xrand.New(42)
	for _, d := range []int{1, 2, 3, 4, 9} {
		maxExt := 7
		if d == 9 {
			maxExt = 3
		}
		for trial := range 200 {
			src, dst, ext := make([]int, d), make([]int, d), make([]int, d)
			srcLo, dstLo := make([]int, d), make([]int, d)
			// A trailing stretch of axes the box covers whole in both.
			whole := d - rng.Intn(d+1)
			for k := range d {
				ext[k] = 1 + rng.Intn(maxExt)
				if k >= whole {
					src[k], dst[k] = ext[k], ext[k]
					continue
				}
				src[k] = ext[k] + rng.Intn(3)
				dst[k] = ext[k] + rng.Intn(3)
				srcLo[k] = rng.Intn(src[k] - ext[k] + 1)
				dstLo[k] = rng.Intn(dst[k] - ext[k] + 1)
			}
			if trial%5 == 0 {
				dstLo = nil
			}
			ws, wt := boxPairs(src, srcLo, dst, dstLo, ext)
			gs, gt, runs := walk(src, srcLo, dst, dstLo, ext)
			name := fmt.Sprintf("rank %d box %v at %v in %v, at %v in %v", d, ext, srcLo, src, dstLo, dst)
			if !slices.Equal(gs, ws) || !slices.Equal(gt, wt) {
				t.Fatalf("%s: runs expand to\n src %v\n dst %v\nwant\n src %v\n dst %v", name, gs, gt, ws, wt)
			}
			if want := mergedRuns(src, dst, ext); runs != want {
				t.Fatalf("%s: %d runs, want %d", name, runs, want)
			}
		}
	}
}

// TestEachRunRunCounts pins the merge rule on hand-picked boxes.
func TestEachRunRunCounts(t *testing.T) {
	for _, c := range []struct {
		src, srcLo, dst, ext []int
		runs, n              int
	}{
		{[]int{6, 5, 4}, []int{2, 0, 0}, []int{2, 5, 4}, []int{2, 5, 4}, 1, 40},  // axis-0 slab
		{[]int{6, 5, 4}, []int{1, 1, 0}, []int{2, 3, 4}, []int{2, 3, 4}, 2, 12},  // whole last axis
		{[]int{6, 5, 4}, []int{1, 1, 1}, []int{2, 3, 2}, []int{2, 3, 2}, 6, 2},   // cuts the last axis
		{[]int{6, 5, 4}, []int{0, 0, 0}, []int{6, 5, 4}, []int{6, 5, 4}, 1, 120}, // the whole array
		{[]int{6, 1, 4}, []int{3, 0, 0}, []int{1, 1, 4}, []int{1, 1, 4}, 1, 4},   // extent-1 axes
		{[]int{6, 5, 4}, []int{0, 0, 0}, []int{6, 5, 8}, []int{6, 5, 4}, 30, 4},  // whole in src only
		{[]int{4, 3, 2, 5}, []int{1, 0, 0, 0}, []int{2, 3, 2, 5}, []int{2, 3, 2, 5}, 1, 60},
	} {
		var runs int
		EachRun(c.src, c.srcLo, c.dst, nil, c.ext, func(_, _, n int) bool {
			if n != c.n {
				t.Fatalf("box %v at %v in %v: run of %d, want %d", c.ext, c.srcLo, c.src, n, c.n)
			}
			runs++
			return true
		})
		if runs != c.runs {
			t.Fatalf("box %v at %v in %v: %d runs, want %d", c.ext, c.srcLo, c.src, runs, c.runs)
		}
	}
}

// TestEachRunEdges checks the empty box, rank 0 and the early stop.
func TestEachRunEdges(t *testing.T) {
	for _, ext := range [][]int{{0}, {3, 0, 2}, {0, 4}} {
		shape := make([]int, len(ext))
		for k := range shape {
			shape[k] = 4
		}
		EachRun(shape, nil, shape, nil, ext, func(_, _, _ int) bool {
			t.Fatalf("empty box %v yields a run", ext)
			return true
		})
	}
	var got [][3]int
	EachRun(nil, nil, nil, nil, nil, func(s, d, n int) bool {
		got = append(got, [3]int{s, d, n})
		return true
	})
	if !slices.Equal(got, [][3]int{{0, 0, 1}}) {
		t.Fatalf("rank-0 box yields %v, want one one-element run", got)
	}
	// A 4×5×6 box cutting every axis has 20 runs; stop after k.
	src, lo, ext := []int{7, 8, 9}, []int{1, 2, 3}, []int{4, 5, 6}
	for _, k := range []int{1, 2, 7, 20} {
		calls := 0
		EachRun(src, lo, ext, nil, ext, func(_, _, _ int) bool {
			calls++
			return calls < k
		})
		if calls != k {
			t.Fatalf("stop after %d runs: fn called %d times", k, calls)
		}
	}
}

// TestEachRunPanicsOutside checks that a box outside either array, or
// of the wrong rank, panics instead of walking.
func TestEachRunPanicsOutside(t *testing.T) {
	shape := []int{4, 5}
	for _, c := range []struct {
		name                   string
		src, srcLo, dst, dstLo []int
		ext                    []int
	}{
		{"past src", shape, []int{2, 0}, shape, nil, []int{3, 5}},
		{"negative src corner", shape, []int{-1, 0}, shape, nil, []int{1, 1}},
		{"past dst", shape, nil, []int{2, 5}, []int{0, 1}, []int{2, 5}},
		{"negative dst corner", shape, nil, shape, []int{0, -1}, []int{1, 1}},
		{"larger than dst", []int{2, 5}, nil, []int{4, 4}, nil, []int{2, 5}},
		{"negative extent", shape, nil, shape, nil, []int{1, -1}},
		{"rank of dst", shape, nil, []int{20}, nil, shape},
		{"rank of corner", shape, []int{0}, shape, nil, shape},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			EachRun(c.src, c.srcLo, c.dst, c.dstLo, c.ext, func(_, _, _ int) bool { return true })
		}()
	}
}

// TestEachRunEmbedsCorner checks the zero-padding layout of the
// spectral variogram's embed (and of the Gaussian sampler's torus,
// read back the other way): a field copied into the leading corner of
// a larger zeroed buffer lands at its own index tuple, every other cell
// left at zero.
func TestEachRunEmbedsCorner(t *testing.T) {
	for _, c := range []struct {
		name          string
		field, padded []int
	}{
		{"2D", []int{2, 3}, []int{4, 4}},
		{"3D", []int{2, 2, 3}, []int{3, 4, 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := make([]float64, shapeLen(c.field))
			for i := range src {
				src[i] = float64(i + 1)
			}
			dst := make([]float64, shapeLen(c.padded))
			EachRun(c.field, nil, c.padded, nil, c.field, func(s, d, n int) bool {
				copy(dst[d:d+n], src[s:s+n])
				return true
			})
			idx := make([]int, len(c.padded))
			for _, got := range dst {
				want, sf, in := 0.0, 0, true
				for k, e := range c.field {
					in = in && idx[k] < e
					sf = sf*e + idx[k]
				}
				if in {
					want = src[sf]
				}
				if got != want {
					t.Fatalf("dst%v = %v, want %v", idx, got, want)
				}
				for k := len(idx) - 1; k >= 0; k-- {
					if idx[k]++; idx[k] < c.padded[k] {
						break
					}
					idx[k] = 0
				}
			}
		})
	}
}

func shapeLen(shape []int) int {
	n, err := shapeProduct(shape)
	if err != nil {
		panic(err)
	}
	return n
}

// TestWarmCopyAllocs pins the two hot copies through EachRun at zero
// allocations once warm: WindowIntoWide at ranks 2 and 3 from either
// lane, and ReadBlock on either stored lane for a box that cuts every
// axis. Both hold only while the walker's closure stays off the heap.
// ReadBlock's staging buffer comes from a sync.Pool, which drops values
// at random under the race detector, so the test runs only without it.
func TestWarmCopyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under the race detector")
	}
	for _, c := range []struct {
		shape, origin []int
		h             int
	}{
		{[]int{24, 24}, []int{5, 7}, 8},
		{[]int{12, 12, 12}, []int{3, 2, 4}, 5},
	} {
		f := randField(t, c.shape, 9)
		g := f.Narrow()
		for lane, win := range map[string]func(*Field){
			"f64": func(dst *Field) { f.WindowIntoWide(dst, c.origin, c.h) },
			"f32": func(dst *Field) { g.WindowIntoWide(dst, c.origin, c.h) },
		} {
			dst := new(Field)
			win(dst)
			if a := testing.AllocsPerRun(50, func() { win(dst) }); a != 0 {
				t.Errorf("warm %s WindowIntoWide on %v allocates %v per call, want 0", lane, c.shape, a)
			}
		}
	}
	f := randField(t, []int{9, 8, 7}, 10)
	lo, hi := []int{1, 2, 3}, []int{8, 6, 5}
	for _, lane := range []string{"f64", "f32"} {
		var buf bytes.Buffer
		var err error
		if lane == "f32" {
			err = f.Narrow().WriteBinary(&buf)
		} else {
			err = f.WriteBinary(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0)
		if err != nil {
			t.Fatal(err)
		}
		var blk Field
		read := func() {
			if err := tr.ReadBlock(&blk, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if a := testing.AllocsPerRun(50, read); a != 0 {
			t.Errorf("warm %s ReadBlock allocates %v per call, want 0", lane, a)
		}
	}
}
