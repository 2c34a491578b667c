package field

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"lossycorr/internal/xrand"
)

func randomField32Bin(shape []int, seed uint64) *Field32 {
	rng := xrand.New(seed)
	f := New32(shape...)
	for i := range f.Data {
		f.Data[i] = float32(rng.NormFloat64())
	}
	return f
}

// TestBinary32Roundtrip pins the float32 LCF1 layout for every rank,
// including rank 2 (which the float64 writer emits in legacy layout —
// the float32 lane always writes the tagged form so the element type
// is never ambiguous).
func TestBinary32Roundtrip(t *testing.T) {
	for _, shape := range [][]int{{7}, {9, 11}, {3, 4, 5}, {2, 3, 2, 2}} {
		f := randomField32Bin(shape, 3)
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary32(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(f) {
			t.Fatalf("shape %v want %v", got.Shape, f.Shape)
		}
		for i := range f.Data {
			if got.Data[i] != f.Data[i] {
				t.Fatalf("shape %v element %d differs", shape, i)
			}
		}
	}
}

// TestReadAnyLimitDispatch pins lane auto-detection: one reader call
// classifies float64-tagged, float32-tagged, and legacy-2D streams.
func TestReadAnyLimitDispatch(t *testing.T) {
	f64 := New(3, 4, 5)
	f64.Data[7] = 1.5
	var buf bytes.Buffer
	if err := f64.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	w, n, err := ReadAnyLimit(bytes.NewReader(buf.Bytes()), 1<<20)
	if err != nil || w == nil || n != nil {
		t.Fatalf("f64 stream: (%v, %v, %v)", w, n, err)
	}

	f32 := randomField32Bin([]int{6, 7}, 5)
	buf.Reset()
	if err := f32.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	w, n, err = ReadAnyLimit(bytes.NewReader(buf.Bytes()), 1<<20)
	if err != nil || w != nil || n == nil {
		t.Fatalf("f32 stream: (%v, %v, %v)", w, n, err)
	}
	if !n.SameShape(f32) || n.Data[3] != f32.Data[3] {
		t.Fatal("f32 payload mangled")
	}

	// Legacy 2D: two uint32 dims then float64 payload.
	legacy := binary.LittleEndian.AppendUint32(nil, 2)
	legacy = binary.LittleEndian.AppendUint32(legacy, 3)
	for i := 0; i < 6; i++ {
		legacy = binary.LittleEndian.AppendUint64(legacy, math.Float64bits(float64(i)))
	}
	w, n, err = ReadAnyLimit(bytes.NewReader(legacy), 1<<20)
	if err != nil || w == nil || n != nil {
		t.Fatalf("legacy stream: (%v, %v, %v)", w, n, err)
	}
	if w.NDim() != 2 || w.Data[5] != 5 {
		t.Fatal("legacy payload mangled")
	}
}

// TestReadBinaryWidensFloat32 pins the widening bridge: the float64
// reader accepts a float32 file and widens it exactly, so existing
// consumers see the float32 lane transparently.
func TestReadBinaryWidensFloat32(t *testing.T) {
	f32 := randomField32Bin([]int{5, 8}, 9)
	var buf bytes.Buffer
	if err := f32.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	wide, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wide.Shape, f32.Shape) {
		t.Fatalf("shape %v want %v", wide.Shape, f32.Shape)
	}
	for i := range f32.Data {
		if wide.Data[i] != float64(f32.Data[i]) {
			t.Fatalf("element %d not exactly widened", i)
		}
	}
}

// TestReadBinary32RejectsF64Lane pins the lane mismatch error: a
// float64 stream must not silently reinterpret as float32.
func TestReadBinary32RejectsF64Lane(t *testing.T) {
	f := New(4, 4)
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary32(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("float64 stream accepted by float32 reader")
	}
}

// TestReadBinary32LimitCaps pins that the element budget is enforced
// from the header alone on the float32 lane too.
func TestReadBinary32LimitCaps(t *testing.T) {
	hdr := []byte{'L', 'C', 'F', '1'}
	hdr = binary.LittleEndian.AppendUint32(hdr, 2|f32LaneFlag)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2048)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2048)
	if _, err := ReadBinary32Limit(bytes.NewReader(hdr), 1<<10); err == nil {
		t.Fatal("expected cap error for 4M-element float32 claim under a 1K budget")
	}
}

// TestWriteBinaryReadsBack pins that the writer rejects every shape the
// readers reject: on either lane, a write that succeeds reads back
// through ReadAnyLimit on the same lane with the same shape and bits,
// and every shape of rank 1–8 with positive extents writes.
func TestWriteBinaryReadsBack(t *testing.T) {
	for _, shape := range [][]int{
		{}, {5}, {0}, {3, 4}, {2, 0}, {2, 3, 4}, {2, 0, 4}, {1, 1, 1, 1, 1, 1, 1, 1, 2},
	} {
		f := New(shape...)
		for i := range f.Data {
			f.Data[i] = float64(i) + 0.25
		}
		t.Run(fmt.Sprint("f64", shape), func(t *testing.T) { checkReadsBack(t, f) })
		t.Run(fmt.Sprint("f32", shape), func(t *testing.T) { checkReadsBack(t, f.Narrow()) })
	}
}

func checkReadsBack[T Elem](t *testing.T, f *Of[T]) {
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		if d := len(f.Shape); d >= 1 && d <= 8 && !slices.Contains(f.Shape, 0) {
			t.Fatalf("shape %v not written: %v", f.Shape, err)
		}
		return
	}
	wide, narrow, err := ReadAnyLimit(&buf, 0)
	if err != nil {
		t.Fatalf("shape %v written, then read back as: %v", f.Shape, err)
	}
	var got any = wide
	if narrow != nil {
		got = narrow
	}
	g, ok := got.(*Of[T])
	if !ok {
		t.Fatalf("shape %v read back on the other lane", f.Shape)
	}
	if !slices.Equal(g.Shape, f.Shape) || !slices.Equal(g.Data, f.Data) {
		t.Fatalf("shape %v read back as %v %v, want %v", f.Shape, g.Shape, g.Data, f.Data)
	}
}

// FuzzFieldBinaryRoundTrip drives ReadAnyLimit with arbitrary bytes:
// it must never panic, and anything it accepts must survive a
// write-reread round trip bit-for-bit on either lane.
func FuzzFieldBinaryRoundTrip(f *testing.F) {
	seed64 := func(shape ...int) []byte {
		fd := New(shape...)
		var buf bytes.Buffer
		_ = fd.WriteBinary(&buf)
		return buf.Bytes()
	}
	seed32 := func(shape ...int) []byte {
		fd := New32(shape...)
		for i := range fd.Data {
			fd.Data[i] = float32(i) * 0.5
		}
		var buf bytes.Buffer
		_ = fd.WriteBinary(&buf)
		return buf.Bytes()
	}
	f.Add(seed64(3, 4))
	f.Add(seed64(2, 3, 4))
	f.Add(seed32(3, 4))
	f.Add(seed32(2, 3, 4))
	// Hostile headers: f32 flag with absurd rank, truncated f32 payload.
	bad := []byte{'L', 'C', 'F', '1'}
	bad = binary.LittleEndian.AppendUint32(bad, 200|f32LaneFlag)
	f.Add(bad)
	trunc := seed32(8, 8)
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		wide, narrow, err := ReadAnyLimit(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		switch {
		case wide != nil:
			if err := wide.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range wide.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(wide.Data[i]) {
					t.Fatalf("f64 element %d changed across round trip", i)
				}
			}
		case narrow != nil:
			if err := narrow.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBinary32(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range narrow.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(narrow.Data[i]) {
					t.Fatalf("f32 element %d changed across round trip", i)
				}
			}
		default:
			t.Fatal("ReadAnyLimit returned neither lane without error")
		}
	})
}
