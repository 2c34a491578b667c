package field

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lossycorr/internal/xrand"
)

func random2D(rows, cols int, seed uint64) *refGrid {
	rng := xrand.New(seed)
	g := newRefGrid(rows, cols)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return g
}

// TestViewsShareData checks that FromData wraps rather than copies and
// that the FromGrid/FromVolume shims are the identity.
func TestViewsShareData(t *testing.T) {
	d := make([]float64, 42)
	f, err := FromData([]int{6, 7}, d)
	if err != nil {
		t.Fatal(err)
	}
	f.Set(42, 0, 3)
	if d[3] != 42 {
		t.Fatal("FromData copied instead of sharing")
	}
	if FromGrid(f) != f {
		t.Fatal("FromGrid is not the identity")
	}
	v := New(2, 3, 4)
	if FromVolume(v) != v {
		t.Fatal("FromVolume is not the identity")
	}
}

// TestSummaryMatchesGridBitwise pins the claim every statistic relies
// on: field summaries reproduce the historical 2D summaries exactly.
func TestSummaryMatchesGridBitwise(t *testing.T) {
	g := random2D(33, 57, 9)
	sg, sf := g.Summary(), g.field().Summary()
	if sg != sf {
		t.Fatalf("summary mismatch: %+v vs %+v", sg, sf)
	}
}

// TestWindowMatchesGridWindow checks rank-2 window extraction equals
// the historical 2D implementation, including clipped edge windows.
func TestWindowMatchesGridWindow(t *testing.T) {
	g := random2D(20, 14, 3)
	f := g.field()
	for _, o := range [][2]int{{0, 0}, {8, 8}, {16, 8}, {19, 13}} {
		wg := g.Window(o[0], o[1], 8, 8)
		wf := f.Window([]int{o[0], o[1]}, 8)
		if wf.Shape[0] != wg.Rows || wf.Shape[1] != wg.Cols {
			t.Fatalf("origin %v: shape %v vs %dx%d", o, wf.Shape, wg.Rows, wg.Cols)
		}
		for i := range wg.Data {
			if wf.Data[i] != wg.Data[i] {
				t.Fatalf("origin %v element %d differs", o, i)
			}
		}
	}
}

func TestWindow3D(t *testing.T) {
	v := New(5, 6, 7)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	w := v.Window([]int{1, 2, 3}, 3)
	if w.Shape[0] != 3 || w.Shape[1] != 3 || w.Shape[2] != 3 {
		t.Fatalf("shape %v", w.Shape)
	}
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				if got, want := w.At(z, y, x), v.At(1+z, 2+y, 3+x); got != want {
					t.Fatalf("(%d,%d,%d): %v want %v", z, y, x, got, want)
				}
			}
		}
	}
	// clipped at the far corner
	c := v.Window([]int{4, 5, 6}, 3)
	if c.Shape[0] != 1 || c.Shape[1] != 1 || c.Shape[2] != 1 {
		t.Fatalf("clipped shape %v", c.Shape)
	}
}

func TestTileOriginsMatchGrid(t *testing.T) {
	g := random2D(70, 50, 4)
	f := g.field()
	want := g.TileOrigins(32)
	got := f.TileOrigins(32)
	if n := NewWindowGrid(f.Shape, 32).Total(); len(got) != len(want) || len(got) != n {
		t.Fatalf("%d origins, want %d (window grid %d)", len(got), len(want), n)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("origin %d: %v want %v", i, got[i], want[i])
		}
	}
}

func TestTileOrigins3DOrder(t *testing.T) {
	f := New(4, 4, 4)
	got := f.TileOrigins(4)
	if len(got) != 1 || got[0][0] != 0 {
		t.Fatalf("single tile expected, got %v", got)
	}
	f = New(8, 4, 8)
	origins := f.TileOrigins(4)
	want := [][]int{{0, 0, 0}, {0, 0, 4}, {4, 0, 0}, {4, 0, 4}}
	if len(origins) != len(want) {
		t.Fatalf("%d origins want %d", len(origins), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if origins[i][k] != want[i][k] {
				t.Fatalf("origin %d: %v want %v", i, origins[i], want[i])
			}
		}
	}
}

func TestBinaryRoundtripTagged(t *testing.T) {
	f := New(3, 4, 5)
	rng := xrand.New(7)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryLimit(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(f) {
		t.Fatalf("shape %v want %v", got.Shape, f.Shape)
	}
	for i := range f.Data {
		if got.Data[i] != f.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

// TestBinaryLegacyInterop checks both directions of 2D compatibility:
// files in the legacy 2D layout read back as rank-2 fields, and a
// rank-2 field writes exactly the legacy writer's bytes.
func TestBinaryLegacyInterop(t *testing.T) {
	g := random2D(9, 11, 5)
	var legacy bytes.Buffer
	if err := g.WriteBinary(&legacy); err != nil {
		t.Fatal(err)
	}
	f, err := ReadBinaryLimit(bytes.NewReader(legacy.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.NDim() != 2 || f.Shape[0] != 9 || f.Shape[1] != 11 {
		t.Fatalf("shape %v", f.Shape)
	}
	for i := range g.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	// 5000 columns span several of WriteBinary's 4096-element chunks.
	for _, g := range []*refGrid{g, random2D(3, 5000, 6), newRefGrid(1, 1)} {
		var got, want bytes.Buffer
		if err := g.field().WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%dx%d: field bytes differ from the legacy writer's", g.Rows, g.Cols)
		}
	}
}

// TestReadBinaryErrors checks the short-header and short-body errors.
func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinaryLimit(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("expected short header error")
	}
	var buf bytes.Buffer
	if err := New(2, 2).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()[:12]), 0); err == nil {
		t.Fatal("expected short body error")
	}
}

// TestWritePGM checks the PGM header, the min..max stretch, the legacy
// writer's exact bytes, and the rank error.
func TestWritePGM(t *testing.T) {
	f, _ := FromData([]int{2, 3}, []float64{0, 1, 2, 3, 4, 5})
	var buf bytes.Buffer
	if err := f.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	const hdr = "P5\n3 2\n255\n"
	if !strings.HasPrefix(buf.String(), hdr) {
		t.Fatalf("bad PGM header: %q", buf.String())
	}
	body := buf.Bytes()[len(hdr):]
	if len(body) != 6 || body[0] != 0 || body[5] != 255 {
		t.Fatalf("PGM stretch wrong: %v", body)
	}
	for _, g := range []*refGrid{random2D(17, 23, 2), newRefGrid(2, 2)} {
		var got, want bytes.Buffer
		if err := g.field().WritePGM(&got); err != nil {
			t.Fatal(err)
		}
		if err := g.WritePGM(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%dx%d: PGM bytes differ from the legacy writer's", g.Rows, g.Cols)
		}
	}
	if err := New(2, 2, 2).WritePGM(&buf); err == nil {
		t.Fatal("expected rank error for a volume")
	}
}

func TestMaxAbsDiffAndMSE(t *testing.T) {
	a := New(2, 3, 4)
	b := New(2, 3, 4)
	b.Data[5] = 2
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 2 {
		t.Fatalf("MaxAbsDiff %v %v", d, err)
	}
	mse, err := a.MSE(b)
	if err != nil || mse != 4.0/24 {
		t.Fatalf("MSE %v %v", mse, err)
	}
	if _, err := a.MaxAbsDiff(New(2, 3)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestMaxAbsDiffNaN pins NaN handling on both lanes: a NaN on exactly
// one side is an infinite error, wherever it falls, while NaN against
// NaN and an infinity against itself are exact.
func TestMaxAbsDiffNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, nan, 3}, []float64{1, nan, 2.5}, 0.5},
		{[]float64{inf, -inf, 0}, []float64{inf, -inf, 0}, 0},
		{[]float64{1, 2, 3}, []float64{1, nan, 3}, inf},
		{[]float64{nan, 2, 3}, []float64{1, 2, 3}, inf},
		{[]float64{1, 2, 3}, []float64{5, 2, nan}, inf},
		{[]float64{inf, 2}, []float64{nan, 2}, inf},
		{[]float64{1, inf}, []float64{1, 2}, inf},
	}
	for _, c := range cases {
		a, _ := FromData([]int{len(c.a)}, c.a)
		b, _ := FromData([]int{len(c.b)}, c.b)
		if d, err := a.MaxAbsDiff(b); err != nil || d != c.want {
			t.Errorf("float64 %v vs %v: %v (%v), want %v", c.a, c.b, d, err, c.want)
		}
		if d, err := a.Narrow().MaxAbsDiff(b.Narrow()); err != nil || d != c.want {
			t.Errorf("float32 %v vs %v: %v (%v), want %v", c.a, c.b, d, err, c.want)
		}
	}
}

// TestReadBinaryRejectsOverflowingHeaders feeds headers whose element
// counts wrap int64; the reader must error, not panic in makeslice.
func TestReadBinaryRejectsOverflowingHeaders(t *testing.T) {
	legacy := make([]byte, 8)
	for i := 0; i < 8; i += 4 {
		// 3037000500² ≈ 2^63.09 wraps negative in int64.
		legacy[i], legacy[i+1], legacy[i+2], legacy[i+3] = 0x34, 0x33, 0x05, 0xb5
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(legacy), 0); err == nil {
		t.Fatal("expected error for overflowing legacy dimensions")
	}
	tagged := append([]byte{'L', 'C', 'F', '1', 8, 0, 0, 0}, bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f}, 8)...)
	if _, err := ReadBinaryLimit(bytes.NewReader(tagged), 0); err == nil {
		t.Fatal("expected error for overflowing tagged shape")
	}
}

// TestReadBinaryRejectsZeroExtents pins the upload-hardening rule: no
// writer produces a zero extent, so a header claiming one is malformed
// and must error in both layouts before any allocation.
func TestReadBinaryRejectsZeroExtents(t *testing.T) {
	legacy := make([]byte, 8)
	binary.LittleEndian.PutUint32(legacy[0:], 0)
	binary.LittleEndian.PutUint32(legacy[4:], 16)
	if _, err := ReadBinaryLimit(bytes.NewReader(legacy), 0); err == nil {
		t.Fatal("expected error for zero legacy dimension")
	}
	tagged := []byte{'L', 'C', 'F', '1', 3, 0, 0, 0}
	for _, d := range []uint32{4, 0, 4} {
		tagged = binary.LittleEndian.AppendUint32(tagged, d)
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(tagged), 0); err == nil {
		t.Fatal("expected error for zero tagged extent")
	}
}

// TestReadBinaryLimitCapsBeforeAllocating feeds headers that are
// internally consistent but claim fields far beyond the caller's
// budget: the reader must reject them from the 8- to 40-byte header
// alone. The tiny test budget doubles as the allocation probe — if the
// reader allocated the claimed payload first, the 1<<20-element claim
// below would still succeed, so the error proves validation precedes
// allocation.
func TestReadBinaryLimitCapsBeforeAllocating(t *testing.T) {
	legacy := make([]byte, 8)
	binary.LittleEndian.PutUint32(legacy[0:], 1024)
	binary.LittleEndian.PutUint32(legacy[4:], 1024)
	if _, err := ReadBinaryLimit(bytes.NewReader(legacy), 1<<10); err == nil {
		t.Fatal("expected cap error for 1M-element legacy claim under a 1K budget")
	}
	tagged := []byte{'L', 'C', 'F', '1', 3, 0, 0, 0}
	for _, d := range []uint32{128, 128, 128} {
		tagged = binary.LittleEndian.AppendUint32(tagged, d)
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(tagged), 1<<10); err == nil {
		t.Fatal("expected cap error for 2M-element tagged claim under a 1K budget")
	}
	// A claim within budget still round-trips.
	f := New(4, 4)
	f.Data[5] = 42
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryLimit(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[5] != 42 {
		t.Fatalf("round trip lost data: %v", got.Data[5])
	}
	// Budgets above the absolute ceiling clamp to it rather than
	// weakening the guarantee.
	huge := []byte{'L', 'C', 'F', '1', 2, 0, 0, 0}
	for _, d := range []uint32{1 << 16, 1 << 16} {
		huge = binary.LittleEndian.AppendUint32(huge, d)
	}
	if _, err := ReadBinaryLimit(bytes.NewReader(huge), 1<<40); err == nil {
		t.Fatal("expected absolute ceiling to reject 2^32-element claim")
	}
}

func TestFromDataValidation(t *testing.T) {
	if _, err := FromData([]int{2, 3}, make([]float64, 5)); err == nil {
		t.Fatal("expected length mismatch error")
	}
	f, err := FromData([]int{2, 3}, make([]float64, 6))
	if err != nil || f.Len() != 6 || f.SizeBytes() != 48 {
		t.Fatalf("%v %v", f, err)
	}
	if f.MinDim() != 2 {
		t.Fatalf("MinDim %d", f.MinDim())
	}
}

// TestWindowIntoReusesStorage pins the zero-allocation contract of the
// pooled window path: after the first extraction, refilling the same
// destination (same or smaller window) allocates nothing and matches a
// fresh Window bitwise.
func TestWindowIntoReusesStorage(t *testing.T) {
	f := random2D(24, 24, 8).field()
	dst := new(Field)
	f.WindowIntoWide(dst, []int{0, 0}, 8)
	data0 := &dst.Data[0]
	origin := []int{8, 8}
	allocs := testing.AllocsPerRun(50, func() {
		f.WindowIntoWide(dst, origin, 8)
	})
	if allocs != 0 {
		t.Fatalf("warm WindowIntoWide allocates %v per call, want 0", allocs)
	}
	if &dst.Data[0] != data0 {
		t.Fatal("warm WindowIntoWide replaced the backing array")
	}
	for _, o := range [][]int{{0, 0}, {8, 16}, {20, 20}} {
		want := f.Window(o, 8)
		got := f.WindowIntoWide(dst, o, 8)
		if len(got.Shape) != len(want.Shape) || got.Shape[0] != want.Shape[0] || got.Shape[1] != want.Shape[1] {
			t.Fatalf("origin %v: shape %v vs %v", o, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("origin %v: element %d differs", o, i)
			}
		}
	}
	// Growing reuse: a larger window re-allocates once, then holds.
	f.WindowIntoWide(dst, []int{0, 0}, 16)
	if dst.Shape[0] != 16 || len(dst.Data) != 256 {
		t.Fatalf("grown window shape %v len %d", dst.Shape, len(dst.Data))
	}
}

func TestNewZeroFilled(t *testing.T) {
	f := New(3, 4)
	if f.NDim() != 2 || f.Len() != 12 || len(f.Data) != 12 {
		t.Fatalf("bad shape %v len %d", f.Shape, len(f.Data))
	}
	for i, v := range f.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a negative extent")
		}
	}()
	New(-1, 3)
}

func TestCloneIndependent(t *testing.T) {
	f := New(2, 2)
	c := f.Clone()
	c.Data[0] = 9
	if f.Data[0] != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestSummaryKnownValues(t *testing.T) {
	f, _ := FromData([]int{1, 4}, []float64{1, 2, 3, 4})
	s := f.Summary()
	if s.Min != 1 || s.Max != 4 || s.ValueRange != 3 || s.Mean != 2.5 || s.Variance != 1.25 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummaryEmpty(t *testing.T) {
	if s := New(0, 0).Summary(); s != (Stats{}) {
		t.Fatalf("empty summary %+v", s)
	}
}

// TestHasVarianceMatchesSummary pins the early-exit keep check to
// Summary().Variance != 0 on both lanes: on windows that vary though
// their Welford variance is 0 (so "not all equal" would be the wrong
// test, and one of them has m2 > 0, so "m2 > 0" would be too), on NaN, ±Inf, overflowing, constant and empty windows, and on
// seeded random windows that mix runs of one value with tiny, huge and
// non-finite ones.
func TestHasVarianceMatchesSummary(t *testing.T) {
	rep := func(v float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	sub := math.SmallestNonzeroFloat64
	zeroVar := [][]float64{
		append([]float64{math.Nextafter(1, 2)}, rep(1, 15)...),
		{sub, 2 * sub, 3 * sub, sub, 0, 7 * sub, sub, sub},
		append(rep(1e-200, 8), rep(2e-200, 8)...),
		{0, 0x1p-536, 0, 0, 0, 0, 0, 0}, // m2 is 3 subnormal ulps; m2/8 rounds to 0
	}
	for _, d := range zeroVar {
		if v := (&Field{Shape: []int{len(d)}, Data: d}).Summary().Variance; v != 0 {
			t.Fatalf("%v: Welford variance %v, want the fixture's 0", d, v)
		}
	}
	cases := append(zeroVar,
		nil, rep(3, 1), rep(-2.5, 40), rep(0, 9), rep(sub, 9),
		rep(math.Inf(1), 4), rep(math.Inf(-1), 4), rep(math.NaN(), 4),
		append(rep(1, 7), math.NaN()), append(rep(1, 7), math.Inf(-1)),
		[]float64{-math.MaxFloat64, math.MaxFloat64, 1, 1},
		[]float64{math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64},
		[]float64{1, 2}, []float64{0, 0x1p-460, 0, 0}, []float64{0, 0x1p-520, 0, 0},
	)
	rng := xrand.New(41)
	for range 4000 {
		d := make([]float64, 1+rng.Intn(64))
		base := rng.NormFloat64() * math.Ldexp(1, rng.Intn(2100)-1050)
		for i := range d {
			switch rng.Intn(12) {
			case 0:
				d[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(2100)-1050)
			case 1:
				d[i] = math.Nextafter(base, math.Inf(1))
			case 2:
				d[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, sub, math.MaxFloat64}[rng.Intn(6)]
			default:
				d[i] = base
			}
		}
		cases = append(cases, d)
	}
	for _, d := range cases {
		f := &Field{Shape: []int{len(d)}, Data: d}
		if got, want := f.HasVariance(), f.Summary().Variance != 0; got != want {
			t.Fatalf("%v: HasVariance %v, Summary variance %v", d, got, f.Summary().Variance)
		}
		f32 := f.Narrow()
		if got, want := f32.HasVariance(), f32.Summary().Variance != 0; got != want {
			t.Fatalf("float32 %v: HasVariance %v, Summary variance %v", f32.Data, got, f32.Summary().Variance)
		}
	}
}

// TestTilesCoverEverythingOnce checks that the tile windows of a
// non-multiple field partition it.
func TestTilesCoverEverythingOnce(t *testing.T) {
	f := New(7, 10)
	cells := 0
	for _, o := range f.TileOrigins(4) {
		cells += f.Window(o, 4).Len()
	}
	if n := NewWindowGrid(f.Shape, 4).Total(); n != 6 || len(f.TileOrigins(4)) != n {
		t.Fatalf("%d windows, %d origins", n, len(f.TileOrigins(4)))
	}
	if cells != f.Len() {
		t.Fatalf("tiles cover %d cells, want %d", cells, f.Len())
	}
}

// TestTileOriginsMatchTilesOrder checks that tile origins come in
// row-major order, one per tile, and that a non-positive tile size is
// rejected.
func TestTileOriginsMatchTilesOrder(t *testing.T) {
	f := New(7, 10)
	want := [][2]int{{0, 0}, {0, 4}, {0, 8}, {4, 0}, {4, 4}, {4, 8}}
	got := f.TileOrigins(4)
	if len(got) != len(want) || len(got) != NewWindowGrid(f.Shape, 4).Total() {
		t.Fatalf("origin count %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("origin[%d] = %v want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive tile size")
		}
	}()
	f.TileOrigins(0)
}

// TestNumTiles counts the h-edged windows, clipped edge windows
// included, that cover a 32×32 field.
func TestNumTiles(t *testing.T) {
	if n := NewWindowGrid([]int{32, 32}, 32).Total(); n != 1 {
		t.Fatalf("h=32: %d windows", n)
	}
	if n := NewWindowGrid([]int{32, 32}, 31).Total(); n != 4 {
		t.Fatalf("h=31: %d windows", n)
	}
}

func TestWindowClipping(t *testing.T) {
	f := New(5, 5)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	w := f.Window([]int{3, 3}, 4)
	if w.Shape[0] != 2 || w.Shape[1] != 2 {
		t.Fatalf("clip produced %v, want 2x2", w.Shape)
	}
	if w.At(0, 0) != 18 || w.At(1, 1) != 24 {
		t.Fatalf("window content wrong: %v", w.Data)
	}
}

func TestWindowPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 3).Window([]int{3, 0}, 1)
}

func TestFromData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	f, err := FromData([]int{2, 3}, d)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v want 6", f.At(1, 2))
	}
	f.Set(42, 0, 1)
	if d[1] != 42 {
		t.Fatal("FromData must not copy")
	}
	if _, err := FromData([]int{2, 2}, d); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(10, 10).SizeBytes(); got != 800 {
		t.Fatalf("SizeBytes=%d want 800", got)
	}
}

// TestMaxAbsDiffAndMSERank2 checks both error measures on a rank-2
// pair and the shape error of each.
func TestMaxAbsDiffAndMSERank2(t *testing.T) {
	a, _ := FromData([]int{1, 3}, []float64{1, 2, 3})
	b, _ := FromData([]int{1, 3}, []float64{1, 2.5, 2})
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 1 {
		t.Fatalf("MaxAbsDiff=%v err=%v", d, err)
	}
	m, err := a.MSE(b)
	if err != nil || math.Abs(m-(0.25+1)/3) > 1e-12 {
		t.Fatalf("MSE=%v err=%v", m, err)
	}
	c := New(2, 2)
	if _, err := a.MaxAbsDiff(c); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := a.MSE(c); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	f := New(6, 3)
	for r := 0; r < 6; r++ {
		for c := 0; c < 3; c++ {
			f.Set(float64(r)-2.5*float64(c), r, c)
		}
	}
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadBinaryLimit(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := f.MaxAbsDiff(g); err != nil || d != 0 {
		t.Fatalf("roundtrip diff %v err=%v", d, err)
	}
}

// TestBinaryRoundtripQuick round-trips arbitrary single-row fields,
// NaNs included, through the rank-2 binary layout.
func TestBinaryRoundtripQuick(t *testing.T) {
	check := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		f, _ := FromData([]int{1, len(vals)}, vals)
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			return false
		}
		g, err := ReadBinaryLimit(&buf, 0)
		if err != nil || !g.SameShape(f) {
			return false
		}
		for i := range vals {
			a, b := f.Data[i], g.Data[i]
			if math.IsNaN(a) != math.IsNaN(b) {
				return false
			}
			if !math.IsNaN(a) && a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeSlices checks that z-slices taken as rank-2 views over a
// volume's data, at the paper's equal spacing, index like the volume.
func TestVolumeSlices(t *testing.T) {
	v := New(4, 3, 2)
	for z := 0; z < 4; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 2; x++ {
				v.Set(float64(100*z+10*y+x), z, y, x)
			}
		}
	}
	if v.At(3, 2, 1) != 321 {
		t.Fatalf("At wrong")
	}
	plane := 3 * 2
	sliceZ := func(z int) *Field {
		s, err := FromData([]int{3, 2}, v.Data[z*plane:(z+1)*plane])
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if g := sliceZ(2); g.At(1, 1) != 211 {
		t.Fatalf("slice content %v", g.At(1, 1))
	}
	// two equally spaced slices of four planes sit at z = 0 and z = 2
	if a, b := sliceZ(0).At(0, 0), sliceZ(2).At(0, 0); a != 0 || b != 200 {
		t.Fatalf("slice spacing wrong: %v %v", a, b)
	}
}
