package bitstream

import (
	"testing"
	"testing/quick"

	"lossycorr/internal/xrand"
)

func TestSingleBits(t *testing.T) {
	w := NewWriter()
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBits(uint64(b), 1)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len=%d want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundtrip(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xffee, 16)
	w.WriteBits(0, 3)
	w.WriteBits(0x1ffffffffffff, 49)
	r := NewReader(w.Bytes())
	for _, c := range []struct {
		v uint64
		n uint
	}{{0b1011, 4}, {0xffee, 16}, {0, 3}, {0x1ffffffffffff, 49}} {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Fatalf("ReadBits(%d) = %#x want %#x", c.n, got, c.v)
		}
	}
}

func TestWriteBitsWide(t *testing.T) {
	// counts > 56 exercise the split path
	w := NewWriter()
	const v uint64 = 0xdeadbeefcafebabe
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("wide roundtrip %#x want %#x", got, v)
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		if len(vals) > len(widths) {
			vals = vals[:len(widths)]
		} else {
			widths = widths[:len(vals)]
		}
		w := NewWriter()
		masked := make([]uint64, len(vals))
		counts := make([]uint, len(vals))
		for i := range vals {
			n := uint(widths[i]%64) + 1
			counts[i] = n
			if n == 64 {
				masked[i] = vals[i]
			} else {
				masked[i] = vals[i] & ((1 << n) - 1)
			}
			w.WriteBits(masked[i], n)
		}
		r := NewReader(w.Bytes())
		for i := range masked {
			got, err := r.ReadBits(counts[i])
			if err != nil || got != masked[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfBits(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
	if _, err := NewReader(nil).ReadBits(1); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadBitsTooMany(t *testing.T) {
	if _, err := NewReader(make([]byte, 16)).ReadBits(65); err == nil {
		t.Fatal("expected count error")
	}
}

// TestRemaining reads a two-byte stream in an unaligned split: after 5
// bits exactly 11 remain, so a read of 11 succeeds and the next bit is
// out of the stream.
func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader([]byte{0, 0}).ReadBits(17); err != ErrOutOfBits {
		t.Fatalf("17 of 16 bits: got %v, want ErrOutOfBits", err)
	}
	if _, err := r.ReadBits(11); err != nil {
		t.Fatalf("the 11 remaining bits: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("bit 17: got %v, want ErrOutOfBits", err)
	}
}

func TestZeroPadding(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b111, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b11100000 {
		t.Fatalf("padding wrong: %08b", b[0])
	}
}

func TestLongRandomStream(t *testing.T) {
	rng := xrand.New(99)
	const n = 10000
	bits := make([]uint, n)
	w := NewWriter()
	for i := range bits {
		bits[i] = uint(rng.Uint64() & 1)
		w.WriteBits(uint64(bits[i]), 1)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil || got != want {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}
