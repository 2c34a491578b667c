package field

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lossycorr/internal/xrand"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.lcf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func randField(t testing.TB, shape []int, seed uint64) *Field {
	t.Helper()
	rng := xrand.New(seed)
	f := New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// TestTileReaderReadBlock pins ReadBlock against direct in-RAM
// extraction for both stored lanes, across ranks and block geometries
// (interior boxes, full-axis slabs, single elements).
func TestTileReaderReadBlock(t *testing.T) {
	for _, shape := range [][]int{{11}, {13, 7}, {7, 9, 5}} {
		f := randField(t, shape, 42)
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		f32 := New32(shape...)
		for i, v := range f.Data {
			f32.Data[i] = float32(v)
		}
		var buf32 bytes.Buffer
		if err := f32.WriteBinary(&buf32); err != nil {
			t.Fatal(err)
		}
		wide := f32.Widen()
		for name, enc := range map[string]struct {
			raw  []byte
			want *Field
		}{
			"f64": {buf.Bytes(), f},
			"f32": {buf32.Bytes(), wide},
		} {
			tr, err := NewTileReader(bytes.NewReader(enc.raw), int64(len(enc.raw)), 1<<30)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := len(shape)
			rng := xrand.New(7)
			dst := new(Field)
			for trial := 0; trial < 25; trial++ {
				lo := make([]int, d)
				hi := make([]int, d)
				for k := 0; k < d; k++ {
					lo[k] = rng.Intn(shape[k])
					hi[k] = lo[k] + 1 + rng.Intn(shape[k]-lo[k])
				}
				if err := tr.ReadBlock(dst, lo, hi); err != nil {
					t.Fatalf("%s block [%v,%v): %v", name, lo, hi, err)
				}
				// Direct extraction from the in-RAM (widened) field.
				idx := make([]int, d)
				copy(idx, lo)
				pos := 0
				for {
					flat := 0
					for k := 0; k < d; k++ {
						flat = flat*shape[k] + idx[k]
					}
					if dst.Data[pos] != enc.want.Data[flat] {
						t.Fatalf("%s block [%v,%v) at %v: %v, want %v",
							name, lo, hi, idx, dst.Data[pos], enc.want.Data[flat])
					}
					pos++
					k := d - 1
					for ; k >= 0; k-- {
						idx[k]++
						if idx[k] < hi[k] {
							break
						}
						idx[k] = lo[k]
					}
					if k < 0 {
						break
					}
				}
				if pos != dst.Len() {
					t.Fatalf("%s: visited %d, block holds %d", name, pos, dst.Len())
				}
			}
			if err := tr.ReadBlock(dst, make([]int, d), append([]int(nil), shape...)); err != nil {
				t.Fatal(err)
			}
			if bad := append([]int(nil), shape...); true {
				bad[0]++
				if err := tr.ReadBlock(dst, make([]int, d), bad); err == nil {
					t.Fatalf("%s: out-of-bounds block succeeded", name)
				}
			}
		}
	}
}

// TestTileReaderMappedEquality: the mmap-backed reader returns the same
// blocks as the pread-backed one.
func TestTileReaderMappedEquality(t *testing.T) {
	shape := []int{9, 8, 7}
	f := randField(t, shape, 77)
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, buf.Bytes())
	a, err := OpenTileReader(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenTileReaderMapped(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	da, db := new(Field), new(Field)
	lo, hi := []int{1, 2, 3}, []int{8, 5, 7}
	if err := a.ReadBlock(da, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadBlock(db, lo, hi); err != nil {
		t.Fatal(err)
	}
	for i := range da.Data {
		if da.Data[i] != db.Data[i] {
			t.Fatalf("mapped block differs at %d", i)
		}
	}
}

// TestTileReaderHostileHeaders: crafted headers whose claimed payload
// exceeds the bytes present — or whose shape product overflows — are
// rejected at open, before any block buffer exists.
func TestTileReaderHostileHeaders(t *testing.T) {
	le := binary.LittleEndian
	cases := map[string][]byte{}

	// LCF1 claiming a 1<<20 × 1<<20 field with 16 payload bytes.
	var big bytes.Buffer
	big.WriteString("LCF1")
	binary.Write(&big, le, uint32(2))
	binary.Write(&big, le, uint32(1<<20))
	binary.Write(&big, le, uint32(1<<20))
	big.Write(make([]byte, 16))
	cases["lcf1-truncated"] = big.Bytes()

	// LCF1 float32 lane, truncated payload.
	var f32 bytes.Buffer
	f32.WriteString("LCF1")
	binary.Write(&f32, le, uint32(3|0x00010000))
	binary.Write(&f32, le, uint32(64))
	binary.Write(&f32, le, uint32(64))
	binary.Write(&f32, le, uint32(64))
	f32.Write(make([]byte, 100))
	cases["lcf1-f32-truncated"] = f32.Bytes()

	// Legacy header claiming 1<<16 × 1<<16 with no payload.
	var leg bytes.Buffer
	binary.Write(&leg, le, uint32(1<<16))
	binary.Write(&leg, le, uint32(1<<16))
	cases["legacy-truncated"] = leg.Bytes()

	// LCF1 whose extent product overflows the element cap.
	var cap bytes.Buffer
	cap.WriteString("LCF1")
	binary.Write(&cap, le, uint32(4))
	for i := 0; i < 4; i++ {
		binary.Write(&cap, le, uint32(1<<16))
	}
	cases["cap-exceeded"] = cap.Bytes()

	for name, raw := range cases {
		if _, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)), 1<<30); err == nil {
			t.Fatalf("%s: open succeeded", name)
		}
	}

	// A lying header must also fail through the file-backed opens.
	path := writeTemp(t, cases["lcf1-truncated"])
	if _, err := OpenTileReader(path, 1<<30); err == nil {
		t.Fatal("OpenTileReader accepted truncated payload")
	}
	if _, err := OpenTileReaderMapped(path, 1<<30); err == nil {
		t.Fatal("OpenTileReaderMapped accepted truncated payload")
	}
}

// TestTileReaderReadAll: the slurp path preserves the stored lane.
func TestTileReaderReadAll(t *testing.T) {
	f := randField(t, []int{6, 5}, 3)
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	f64, f32, err := tr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if f64 == nil || f32 != nil {
		t.Fatal("f64 file did not slurp to the f64 lane")
	}
	for i := range f.Data {
		if f64.Data[i] != f.Data[i] {
			t.Fatalf("slurp differs at %d", i)
		}
	}

	g32 := New32(4, 3)
	for i := range g32.Data {
		g32.Data[i] = float32(i) * 0.5
	}
	var b32 bytes.Buffer
	if err := g32.WriteBinary(&b32); err != nil {
		t.Fatal(err)
	}
	tr32, err := NewTileReader(bytes.NewReader(b32.Bytes()), int64(b32.Len()), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !tr32.Float32Lane() {
		t.Fatal("f32 file not detected as the f32 lane")
	}
	r64, r32, err := tr32.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if r32 == nil || r64 != nil {
		t.Fatal("f32 file did not slurp to the f32 lane")
	}
	for i := range g32.Data {
		if r32.Data[i] != g32.Data[i] {
			t.Fatalf("f32 slurp differs at %d", i)
		}
	}
}

// TestPlanWindowTiles: tiles partition the window lattice exactly, obey
// the element budget, and a budget below one window errors.
func TestPlanWindowTiles(t *testing.T) {
	cases := []struct {
		shape    []int
		h        int
		maxElems int64
	}{
		{[]int{37, 29}, 8, 64},
		{[]int{37, 29}, 8, 8 * 29},
		{[]int{19, 23, 17}, 5, 5 * 5 * 5},
		{[]int{19, 23, 17}, 5, 0},
		{[]int{64, 64}, 16, 1 << 20},
	}
	for _, tc := range cases {
		tiles, err := PlanWindowTiles(tc.shape, tc.h, tc.maxElems)
		if err != nil {
			t.Fatalf("%v h=%d budget=%d: %v", tc.shape, tc.h, tc.maxElems, err)
		}
		g := NewWindowGrid(tc.shape, tc.h)
		seen := make([]int, g.Total())
		for _, tile := range tiles {
			n := int64(1)
			for k := range tc.shape {
				if tile.Lo[k]%tc.h != 0 {
					t.Fatalf("%v: tile lo %v not h-aligned", tc.shape, tile.Lo)
				}
				if tile.Lo[k] < 0 || tile.Hi[k] > tc.shape[k] || tile.Lo[k] >= tile.Hi[k] {
					t.Fatalf("%v: bad tile [%v,%v)", tc.shape, tile.Lo, tile.Hi)
				}
				n *= int64(tile.Hi[k] - tile.Lo[k])
			}
			if tc.maxElems > 0 && n > tc.maxElems {
				t.Fatalf("%v: tile [%v,%v) holds %d elems, budget %d", tc.shape, tile.Lo, tile.Hi, n, tc.maxElems)
			}
			tw := g.TileWindows(tile)
			buf := make([]int, len(tc.shape))
			for j := 0; j < tw.Len(); j++ {
				global, _ := tw.Window(j, buf)
				seen[global]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%v h=%d budget=%d: window %d covered %d times", tc.shape, tc.h, tc.maxElems, i, c)
			}
		}
	}
	if _, err := PlanWindowTiles([]int{64, 64}, 16, 10); err == nil {
		t.Fatal("sub-window budget accepted")
	}
}

// FuzzTileReaderMatchesReadAny is the differential check between the
// two intakes of a field payload: NewTileReader over the bytes must
// accept exactly the payloads ReadAnyLimit accepts at the same element
// budget, and its ReadAll must return the same lane, shape and element
// bits. The seeds hold hostile headers, payloads with trailing bytes,
// and valid fields on both lanes at ranks 1–3.
func FuzzTileReaderMatchesReadAny(f *testing.F) {
	u32 := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	encode := func(shape []int, narrow bool) []byte {
		var buf bytes.Buffer
		wide := randField(f, shape, uint64(len(shape)))
		var err error
		if narrow {
			err = wide.Narrow().WriteBinary(&buf)
		} else {
			err = wide.WriteBinary(&buf)
		}
		if err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	const budget = 8192
	for _, shape := range [][]int{{7}, {4, 5}, {3, 2, 4}} {
		for _, narrow := range []bool{false, true} {
			valid := encode(shape, narrow)
			f.Add(valid, uint16(budget))
			f.Add(append(append([]byte(nil), valid...), 1, 2, 3), uint16(budget)) // trailing bytes
			f.Add(valid[:len(valid)-3], uint16(budget))                           // truncated payload
			f.Add(valid, uint16(2))                                               // over the element budget
		}
	}
	legacy := u32(4, 4)
	for i := 0; i < 16; i++ {
		legacy = binary.LittleEndian.AppendUint64(legacy, uint64(i)<<52)
	}
	f.Add(legacy, uint16(budget))
	f.Add(append(legacy, 0xff), uint16(budget))
	for _, hostile := range [][]byte{
		{},
		[]byte("LCF1"),
		u32(0, 16),                  // zero extent
		u32(0xffffffff, 0xffffffff), // 16-exabyte promise
		append([]byte("LCF1"), u32(0xffffffff)...),          // rank bomb
		append([]byte("LCF1"), u32(3, 1024, 1024, 1024)...), // overflow product
		u32(100, 100), // truncated payload
		append([]byte("LCF1"), u32(2|f32LaneFlag, 0, 8)...),           // zero extent, float32 lane
		append([]byte("LCF1"), u32(200|f32LaneFlag)...),               // rank bomb behind the lane flag
		append([]byte("LCF1"), u32(2|f32LaneFlag, 0xffff, 0xffff)...), // float32 header over the budget
	} {
		f.Add(hostile, uint16(budget))
	}

	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		// A budget of at least one element: <= 0 would select the
		// default cap, which lets ReadAnyLimit allocate gigabytes for a
		// header whose payload is absent.
		maxElements := int(limit)%(1<<14) + 1
		wide, narrow, rerr := ReadAnyLimit(bytes.NewReader(data), maxElements)
		tr, terr := NewTileReader(bytes.NewReader(data), int64(len(data)), maxElements)
		if (rerr == nil) != (terr == nil) {
			t.Fatalf("ReadAnyLimit error %v, NewTileReader error %v", rerr, terr)
		}
		if rerr != nil {
			return
		}
		tw, tn, err := tr.ReadAll()
		if err != nil {
			t.Fatalf("ReadAll of an accepted payload: %v", err)
		}
		switch {
		case wide != nil:
			if tw == nil || !slices.Equal(tw.Shape, wide.Shape) {
				t.Fatalf("float64 payload read as lane f64=%v f32=%v", tw != nil, tn != nil)
			}
			for i := range wide.Data {
				if math.Float64bits(tw.Data[i]) != math.Float64bits(wide.Data[i]) {
					t.Fatalf("f64 element %d: %x != %x", i, math.Float64bits(tw.Data[i]), math.Float64bits(wide.Data[i]))
				}
			}
		case narrow != nil:
			if tn == nil || !slices.Equal(tn.Shape, narrow.Shape) {
				t.Fatalf("float32 payload read as lane f64=%v f32=%v", tw != nil, tn != nil)
			}
			for i := range narrow.Data {
				if math.Float32bits(tn.Data[i]) != math.Float32bits(narrow.Data[i]) {
					t.Fatalf("f32 element %d: %x != %x", i, math.Float32bits(tn.Data[i]), math.Float32bits(narrow.Data[i]))
				}
			}
		default:
			t.Fatal("ReadAnyLimit returned neither lane without error")
		}
	})
}

// TestInPlaceDecodeMatchesBytePath pins the payload readers to the
// byte-by-byte little-endian decode, bit for bit: every float32 class
// (±0, subnormals, normals, ±Inf, quiet and signaling NaNs of several
// payloads, for every sign and exponent) and random float64 bit
// patterns (NaN payloads included), read whole (ReadBinaryLimit,
// ReadAnyLimit), as tile blocks and as gathered spans longer than a
// staging buffer, and narrowed into a float32 destination.
func TestInPlaceDecodeMatchesBytePath(t *testing.T) {
	rng := xrand.New(47)
	var bits32 []uint32
	for se := range uint32(512) { // sign and exponent
		for _, m := range []uint32{0, 1, 2, 0x1234, 0x3fffff, 0x400000, 0x400001, 0x7fffff, uint32(rng.Uint64()) & 0x7fffff} {
			bits32 = append(bits32, se<<23|m)
		}
	}
	for len(bits32) < 3*4096+17 { // more than a staging buffer's worth
		bits32 = append(bits32, uint32(rng.Uint64()))
	}
	bits64 := make([]uint64, 3*4096+9)
	for i := range bits64 {
		bits64[i] = rng.Uint64()
		if i%5 == 0 { // exponent all ones: ±Inf and NaNs of random payloads
			bits64[i] |= 0x7ff << 52
		}
	}
	file := func(f32 bool, payload []byte) []byte {
		var buf bytes.Buffer
		var err error
		if f32 {
			err = New32(len(payload) / 4).WriteBinary(&buf)
		} else {
			err = New(len(payload) / 8).WriteBinary(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		return append(b[:len(b)-len(payload)], payload...)
	}
	var p32, p64 []byte
	for _, u := range bits32 {
		p32 = binary.LittleEndian.AppendUint32(p32, u)
	}
	for _, u := range bits64 {
		p64 = binary.LittleEndian.AppendUint64(p64, u)
	}
	// The byte path: each value decoded from its bytes, then converted.
	want32 := make([]float64, len(bits32))
	for i := range want32 {
		want32[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p32[4*i:])))
	}
	want64 := make([]float64, len(bits64))
	for i := range want64 {
		want64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p64[8*i:]))
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s element %d: %#x, byte path %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for _, tc := range []struct {
		name string
		f32  bool
		file []byte
		want []float64
	}{{"f32", true, file(true, p32), want32}, {"f64", false, file(false, p64), want64}} {
		f, err := ReadBinaryLimit(bytes.NewReader(tc.file), 0)
		if err != nil {
			t.Fatal(err)
		}
		same(tc.name+" ReadBinaryLimit", f.Data, tc.want)
		f64, f32, err := ReadAnyLimit(bytes.NewReader(tc.file), 0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.f32 {
			for i, v := range f32.Data {
				if math.Float32bits(v) != bits32[i] {
					t.Fatalf("f32 ReadAnyLimit element %d: %#x, stored %#x", i, math.Float32bits(v), bits32[i])
				}
			}
		} else {
			same("f64 ReadAnyLimit", f64.Data, tc.want)
		}
		tr, err := NewTileReader(bytes.NewReader(tc.file), int64(len(tc.file)), 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(tc.want)
		var blk Field
		if err := tr.ReadBlock(&blk, []int{0}, []int{n}); err != nil {
			t.Fatal(err)
		}
		same(tc.name+" ReadBlock", blk.Data, tc.want)
		for _, span := range [][2]int{{0, 1}, {3, 5000}, {4095, 4098}, {1, n - 1}, {n - 1, 1}, {7, 0}} {
			// every element of the span, gathered last first
			dst := make([]float64, span[1])
			offs := make([]uint16, span[1])
			for x := range offs {
				offs[x] = uint16(span[1] - 1 - x)
			}
			if err := Gather(tr, dst, offs, span[0], make([]float64, span[1])); err != nil {
				t.Fatal(err)
			}
			slices.Reverse(dst)
			same(tc.name+" Gather", dst, tc.want[span[0]:span[0]+span[1]])
		}
	}
	// A float64 payload narrowed into a float32 destination.
	narrow := make([]float32, len(bits64))
	if err := readPayload(bytes.NewReader(p64), narrow, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range narrow {
		if w := float32(want64[i]); math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("narrowed element %d: %#x, byte path %#x", i, math.Float32bits(v), math.Float32bits(w))
		}
	}
}

// BenchmarkTileRead reads a 48³ volume from memory as four 12×48×48
// slabs per op, the contiguous tile reads of the out-of-core sweep, on
// each stored lane; the bytes per op are the decoded float64s.
func BenchmarkTileRead(b *testing.B) {
	v := randField(b, []int{48, 48, 48}, 3)
	for _, lane := range []string{"f32", "f64"} {
		b.Run(lane, func(b *testing.B) {
			var buf bytes.Buffer
			var err error
			if lane == "f32" {
				err = v.Narrow().WriteBinary(&buf)
			} else {
				err = v.WriteBinary(&buf)
			}
			if err != nil {
				b.Fatal(err)
			}
			tr, err := NewTileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0)
			if err != nil {
				b.Fatal(err)
			}
			var blk Field
			b.SetBytes(int64(8 * v.Len()))
			b.ResetTimer()
			for range b.N {
				for z := 0; z < 48; z += 12 {
					if err := tr.ReadBlock(&blk, []int{z, 0, 0}, []int{z + 12, 48, 48}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// countingReaderAt counts the ReadAt calls made through it.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestReadBlockOneReadPerRun pins ReadBlock at one ReadAt per EachRun
// run, so whole trailing axes merge into one read: an axis-0 slab of a
// 3D file is one read, a box that cuts the last axis one read per row.
// The runs are far shorter than the staging buffer, so the float32
// lane's widening reads split none of them.
func TestReadBlockOneReadPerRun(t *testing.T) {
	shape := []int{6, 5, 4}
	f := randField(t, shape, 5)
	for _, lane := range []string{"f64", "f32"} {
		var buf bytes.Buffer
		want := f
		var err error
		if lane == "f32" {
			want = f.Narrow().Widen()
			err = f.Narrow().WriteBinary(&buf)
		} else {
			err = f.WriteBinary(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
		tr, err := NewTileReader(cr, int64(buf.Len()), 0)
		if err != nil {
			t.Fatal(err)
		}
		var blk Field
		for _, c := range []struct {
			lo, hi []int
			reads  int
		}{
			{[]int{2, 0, 0}, []int{4, 5, 4}, 1}, // axis-0 slab
			{[]int{0, 0, 0}, []int{6, 5, 4}, 1}, // the whole field
			{[]int{1, 1, 0}, []int{3, 4, 4}, 2}, // whole rows: one read per plane
			{[]int{1, 1, 1}, []int{3, 4, 3}, 6}, // cuts the last axis: one read per row
			{[]int{5, 4, 3}, []int{6, 5, 4}, 1}, // one element
		} {
			cr.reads = 0
			if err := tr.ReadBlock(&blk, c.lo, c.hi); err != nil {
				t.Fatal(err)
			}
			if cr.reads != c.reads {
				t.Errorf("%s block [%v,%v): %d reads, want %d", lane, c.lo, c.hi, cr.reads, c.reads)
			}
			ext := make([]int, len(shape))
			for k := range ext {
				ext[k] = c.hi[k] - c.lo[k]
			}
			offs, _ := boxPairs(shape, c.lo, ext, nil, ext)
			for i, o := range offs {
				if blk.Data[i] != want.Data[o] {
					t.Fatalf("%s block [%v,%v) element %d: %v, want %v", lane, c.lo, c.hi, i, blk.Data[i], want.Data[o])
				}
			}
		}
	}
}
