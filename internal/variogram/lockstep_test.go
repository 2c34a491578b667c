package variogram

import (
	"math"
	"slices"
	"testing"

	"lossycorr/internal/cpufeat"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// singleLaneRange is windowRanges' oracle for one window: the skip
// rule, the lag clamp, then the single-lane exactScanData on the
// window's own element lane and Fit.
func singleLaneRange[T field.Elem](t *testing.T, data []T, shape []int, minDim int, variance float64, o Options) (float64, bool, *Empirical) {
	t.Helper()
	if minDim < 4 || variance == 0 {
		return 0, false, nil
	}
	if o.MaxLag <= 0 || o.MaxLag > minDim/2 {
		o.MaxLag = minDim / 2
	}
	o.Workers = 1
	e, err := exactScanData(bg, data, shape, o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(e)
	if err != nil {
		t.Fatal(err)
	}
	return m.Range, true, e
}

// eachRowKernel runs f as a subtest once per row kernel the lockstep
// scan can take here: laneRows2 where cpufeat.AVX2 is set, then the Go
// laneRows with cpufeat.AVX2 cleared. It restores cpufeat.AVX2
// afterwards.
func eachRowKernel(t *testing.T, f func(t *testing.T)) {
	avx := cpufeat.AVX2
	defer func() { cpufeat.AVX2 = avx }()
	if avx {
		t.Run("avx2", f)
	}
	cpufeat.AVX2 = false
	t.Run("laneRow", f)
}

// lockstepCase is one field whose window lattice mixes full, clipped,
// too-small and constant windows.
type lockstepCase struct {
	name  string
	shape []int
	h     int
}

var lockstepCases = []lockstepCase{
	// 93×38 at H=16: 16×16, 16×6, 13×16 and 13×6 windows; ten 16×16
	// windows, one of them flattened, fill both lane groups.
	{"rank2", []int{93, 38}, 16},
	// 21×19×14 at H=8: the last window column is 3 wide (too small).
	{"rank3", []int{21, 19, 14}, 8},
}

// flatten makes the window at origin constant, so every sweep carries
// a constant window between kept ones.
func flatten(f *field.Field32, origin []int, h int) {
	idx := make([]int, len(origin))
	var rec func(k int)
	rec = func(k int) {
		if k == len(origin) {
			f.Set(1.5, idx...)
			return
		}
		for v := origin[k]; v < min(origin[k]+h, f.Shape[k]); v++ {
			idx[k] = v
			rec(k + 1)
		}
	}
	rec(0)
}

// TestLockstepScanMatchesSingleLane pins the lockstep window scan to
// the single-lane exact scan bit for bit: at ranks 2 and 3, for batch
// sizes 1–scanLanes, over batches that mix shapes (clipped edge
// windows), constant and too-small windows, on float32 windows widened
// exactly into the float64 lane, at the default and an explicit lag
// cutoff. Both the per-lane Empirical and the fitted range must match,
// and scans of every lane count 1–scanLanes must occur.
func TestLockstepScanMatchesSingleLane(t *testing.T) { eachRowKernel(t, lockstepScanMatchesSingleLane) }

func lockstepScanMatchesSingleLane(t *testing.T) {
	var seen [scanLanes + 1]bool // lane counts scanned
	for ci, tc := range lockstepCases {
		f32, _ := randomField32(tc.shape, uint64(40+ci))
		origins := f32.TileOrigins(tc.h)
		flatten(f32, origins[1], tc.h)
		for _, o := range []Options{{}, {MaxLag: 3}} {
			type ref struct {
				v    float64
				keep bool
				e    *Empirical
			}
			refs := make([]ref, len(origins))
			ws := make([]*field.Field, len(origins))
			for i, org := range origins {
				w32 := f32.Window(org, tc.h)
				v, keep, e := singleLaneRange(t, w32.Data, w32.Shape, w32.MinDim(), w32.Summary().Variance, o)
				refs[i] = ref{v, keep, e}
				ws[i] = f32.WindowIntoWide(new(field.Field), org, tc.h)
			}
			kept := 0
			for _, r := range refs {
				if r.keep {
					kept++
				}
			}
			if kept == 0 || kept == len(refs) {
				t.Fatalf("%s: %d of %d windows kept; the case must mix kept and skipped windows", tc.name, kept, len(refs))
			}
			for bs := 1; bs <= scanLanes; bs++ {
				vals := make([]float64, len(ws))
				keep := make([]bool, len(ws))
				for lo := 0; lo < len(ws); lo += bs {
					hi := min(lo+bs, len(ws))
					if err := windowRanges(ws[lo:hi], vals[lo:hi], keep[lo:hi], o); err != nil {
						t.Fatal(err)
					}
				}
				for i, r := range refs {
					if keep[i] != r.keep || math.Float64bits(vals[i]) != math.Float64bits(r.v) {
						t.Fatalf("%s MaxLag %d batch %d window %d (shape %v): (%v, %v), single lane (%v, %v)",
							tc.name, o.MaxLag, bs, i, ws[i].Shape, vals[i], keep[i], r.v, r.keep)
					}
				}
			}
			// The lanes' Empiricals themselves, for every run of up to
			// scanLanes kept windows of one shape: the rank-2 runs hold
			// 1 to scanLanes lanes.
			ls := new(laneScratch)
			for i := 0; i < len(ws); i++ {
				if !refs[i].keep {
					continue
				}
				var lanes [][]float64
				var idx []int
				for j := i; j < len(ws) && len(lanes) < scanLanes; j++ {
					if refs[j].keep && slices.Equal(ws[j].Shape, ws[i].Shape) {
						lanes = append(lanes, ws[j].Data)
						idx = append(idx, j)
					}
				}
				maxLag := o.MaxLag
				if maxLag <= 0 || maxLag > ws[i].MinDim()/2 {
					maxLag = ws[i].MinDim() / 2
				}
				exactScanLanes(lanes, ws[i].Shape, maxLag, ls)
				seen[len(lanes)] = true
				for l, j := range idx {
					assertEmpiricalIdentical(t, collect(ls.sum[l], ls.cnt), refs[j].e, tc.name)
				}
			}
		}
	}
	for n := 1; n <= scanLanes; n++ {
		if !seen[n] {
			t.Errorf("no run of %d lanes was scanned", n)
		}
	}
}

// TestLockstepPaddedLanesIgnored: a short group's padding slots
// repeat a kept window's data, so they can never leak into the real
// lanes — a one-window scan equals that window's lane in a full pass
// and in one of 5 lanes, whose second group holds one window.
func TestLockstepPaddedLanesIgnored(t *testing.T) { eachRowKernel(t, lockstepPaddedLanesIgnored) }

func lockstepPaddedLanesIgnored(t *testing.T) {
	f := randomField([]int{scanLanes, 24, 24}, 9)
	var lanes [][]float64
	for z := 0; z < scanLanes; z++ {
		lanes = append(lanes, f.Window([]int{z, 0, 0}, 24).Data)
	}
	many, one := new(laneScratch), new(laneScratch)
	for _, nl := range []int{5, scanLanes} {
		exactScanLanes(lanes[:nl], []int{1, 24, 24}, 8, many)
		for l := range nl {
			exactScanLanes(lanes[l:l+1], []int{1, 24, 24}, 8, one)
			assertEmpiricalIdentical(t, collect(one.sum[0], one.cnt), collect(many.sum[l], many.cnt), "padded")
		}
	}
}

// TestLockstepRandomShapesMatchExactScan is a seeded differential of
// the lockstep scan against the single-lane exact scan's raw per-bin
// sums: shapes of rank 1–4 with extents 1–9 (extent-1 axes included),
// plus shapes whose whole trailing axes fold rows across more than one
// axis, at 1–scanLanes lanes and cutoffs of 1, half the smallest
// extent above 1, and one past that. Every lane's sums must be bit for
// bit and its counts exactly those of exactScanSums on that lane alone.
func TestLockstepRandomShapesMatchExactScan(t *testing.T) {
	eachRowKernel(t, lockstepRandomShapesMatchExactScan)
}

func lockstepRandomShapesMatchExactScan(t *testing.T) {
	shapes := [][]int{{9, 7, 1}, {1, 24, 24}, {5, 1, 1, 6}, {1, 1, 9}, {6, 1}}
	rng := xrand.New(29)
	for len(shapes) < 60 {
		shape := make([]int, 1+rng.Intn(4))
		for k := range shape {
			shape[k] = 1 + rng.Intn(9)
		}
		shapes = append(shapes, shape)
	}
	for si, shape := range shapes {
		n, minDim := 1, 0
		for _, d := range shape {
			n *= d
			if d > 1 && (minDim == 0 || d < minDim) {
				minDim = d
			}
		}
		clamp := max(1, minDim/2)
		lanes := make([][]float64, 1+si%scanLanes)
		for l := range lanes {
			lanes[l] = randomField([]int{n}, uint64(100*si+l)).Data
		}
		ls := new(laneScratch)
		for _, maxLag := range []int{1, clamp, clamp + 1} {
			exactScanLanes(lanes, shape, maxLag, ls)
			for l, lane := range lanes {
				sum, cnt, err := exactScanSums(bg, lane, shape, Options{MaxLag: maxLag, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(ls.sum[l]) != len(sum) || len(ls.cnt) != len(cnt) {
					t.Fatalf("shape %v lag %d lane %d: %d/%d bins, want %d/%d", shape, maxLag, l, len(ls.sum[l]), len(ls.cnt), len(sum), len(cnt))
				}
				for b := range sum {
					if math.Float64bits(ls.sum[l][b]) != math.Float64bits(sum[b]) || ls.cnt[b] != cnt[b] {
						t.Fatalf("shape %v lag %d lane %d of %d bin %d: (%v, %d), single lane (%v, %d)",
							shape, maxLag, l, len(lanes), b, ls.sum[l][b], ls.cnt[b], sum[b], cnt[b])
					}
				}
			}
		}
	}
}

// TestLaneRows2MatchesLaneRow compares the AVX2 row kernel with
// laneRow run row by row, per lane group, lane for lane and bit for
// bit, on seeded random row grids: rows of 0–40 elements, 0–5 rows per
// block and 0–5 blocks (0 and 1 of each included), random strides and
// random chain starts, over values drawn among ±0, subnormals, ±Inf,
// NaNs of several payloads, ±MaxFloat64 and ordinary numbers; every
// other grid draws specials rarely, so its chains mostly stay finite.
// A NaN matches any NaN: Go leaves open which operand's payload an add
// passes on, and the race build's laneRow picks the other one.
func TestLaneRows2MatchesLaneRow(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 row kernel on this CPU or architecture")
	}
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1070, 0x1.8p-1030,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_1234),
		math.MaxFloat64, -math.MaxFloat64, 1e308, 1e154, -1e-160,
	}
	rng := xrand.New(32)
	rate := 4 // one value in rate is special
	value := func() float64 {
		if rng.Intn(rate) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(64)-32)
	}
	plane := func(n int) [][4]float64 {
		p := make([][4]float64, n+1) // one spare element: the kernel takes &p[0]
		for i := range p {
			for l := range p[i] {
				p[i][l] = value()
			}
		}
		return p
	}
	// Rows of 0 and 1 elements, and grids of 0 and 1 rows or blocks.
	edge := []rowGrid{{n: 0, r1: 2, r2: 2}, {n: 1, r1: 1, r2: 1}, {n: 5, r1: 0, r2: 3},
		{n: 5, r1: 3, r2: 0}, {n: 1, r1: 4, r2: 1}, {n: 7, r1: 1, r2: 3}}
	for iter := range 2000 {
		rate = 4 + iter%2*4000
		g := rowGrid{n: rng.Intn(41), r1: rng.Intn(6), r2: rng.Intn(6)}
		if iter < len(edge) {
			g = edge[iter]
		}
		g.st1 = g.n + rng.Intn(8)
		g.st2 = g.r1*g.st1 + rng.Intn(8)
		span := 0 // elements the grid reaches from its base
		if g.n > 0 && g.r1 > 0 && g.r2 > 0 {
			span = (g.r2-1)*g.st2 + (g.r1-1)*g.st1 + g.n
		}
		x0, y0, x1, y1 := plane(span), plane(span), plane(span), plane(span)
		var got, want [8]float64
		for l := range got {
			if rng.Intn(2) == 0 {
				got[l] = math.Abs(value())
			}
		}
		want = got
		laneRows2(&x0[0], &y0[0], &x1[0], &y1[0], g, &got)
		for b := range g.r2 {
			for r := range g.r1 * min(g.n, 1) { // rows of no element fold nothing
				o := b*g.st2 + r*g.st1
				want[0], want[1], want[2], want[3] = laneRow(x0[o:o+g.n], y0[o:o+g.n], want[0], want[1], want[2], want[3])
				want[4], want[5], want[6], want[7] = laneRow(x1[o:o+g.n], y1[o:o+g.n], want[4], want[5], want[6], want[7])
			}
		}
		for l := range got {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) && !(math.IsNaN(got[l]) && math.IsNaN(want[l])) {
				t.Fatalf("grid %+v lane %d: %#x, laneRow %#x", g, l, math.Float64bits(got[l]), math.Float64bits(want[l]))
			}
		}
	}
}

// TestScanOffsetLanesAllocs pins the zero-allocation contract of the
// lockstep scan's inner loop, like TestScanOffsetAllocs for the single
// lane.
func TestScanOffsetLanesAllocs(t *testing.T) { eachRowKernel(t, scanOffsetLanesAllocs) }

func scanOffsetLanesAllocs(t *testing.T) {
	var lanes [][]float64
	for l := 0; l < scanLanes; l++ {
		lanes = append(lanes, randomField([]int{32, 32}, uint64(5+l)).Data)
	}
	il := new(laneScratch).interleave(lanes, 32*32)
	if !cpufeat.AVX2 {
		il = il[:1] // one group per pass, as exactScanLanes hands it
	}
	dims := []int{32, 32}
	strides := []int{32, 1}
	sc := newScanScratch(2)
	var sum [scanLanes]float64
	var cnt int64
	for _, off := range [][]int32{{3, -2}, {3, 0}} {
		allocs := testing.AllocsPerRun(200, func() {
			scanOffsetLanes(il, dims, strides, off, sc, &sum, &cnt)
		})
		if allocs != 0 {
			t.Fatalf("scanOffsetLanes(%v) allocates %v per visit, want 0", off, allocs)
		}
	}
}

// TestExactScanLanesAllocs: after one warm-up at a fixed shape, a
// lockstep scan allocates nothing: the interleaved plane, odometer and
// per-bin accumulators are all reused from the scratch.
func TestExactScanLanesAllocs(t *testing.T) { eachRowKernel(t, exactScanLanesAllocs) }

func exactScanLanesAllocs(t *testing.T) {
	shape := []int{12, 12, 12}
	var lanes [][]float64
	for l := 0; l < scanLanes; l++ {
		lanes = append(lanes, randomField(shape, uint64(60+l)).Data)
	}
	ls := new(laneScratch)
	exactScanLanes(lanes, shape, 6, ls)
	allocs := testing.AllocsPerRun(20, func() {
		exactScanLanes(lanes, shape, 6, ls)
	})
	if allocs != 0 {
		t.Fatalf("exactScanLanes allocates %v per call after warm-up, want 0", allocs)
	}
}

// transpose2D returns f with its two axes swapped.
func transpose2D(f *field.Field) *field.Field {
	r, c := f.Shape[0], f.Shape[1]
	out := field.New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data[j*r+i] = f.Data[i*c+j]
		}
	}
	return out
}

// TestLocalRangeStdTransposeInvariant pins the clipped-window lag
// clamp: an explicit MaxLag beyond half a clipped window's smallest
// extent is cut to it whichever axis is clipped, so a field and its
// transpose give the same statistic. (The clamp used to test the first
// axis only, so an 8×32 edge window scanned lags up to 4 while its
// 32×8 transpose scanned up to 10.)
func TestLocalRangeStdTransposeInvariant(t *testing.T) {
	f := gaussField(t, gaussian.Params{Rows: 40, Cols: 96, Range: 6, Seed: 21})
	ft := transpose2D(f)
	for _, o := range []Options{{MaxLag: 10}, {}} {
		a, err := LocalRangeStd(bg, in64(f), 32, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := LocalRangeStd(bg, in64(ft), 32, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9*math.Abs(a) {
			t.Errorf("MaxLag %d: LocalRangeStd %v, transposed %v", o.MaxLag, a, b)
		}
	}
}
