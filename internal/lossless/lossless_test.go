package lossless

import (
	"bytes"
	"compress/flate"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"lossycorr/internal/xrand"
)

// decompress inflates a whole stream through a pooled Inflater, failing
// with ErrTooLong past limit bytes.
func decompress(data []byte, limit int) ([]byte, error) {
	z := NewInflater(data)
	defer z.Close()
	return z.Append(nil, limit)
}

func TestCompressRoundtrip(t *testing.T) {
	data := bytes.Repeat([]byte("scientific data "), 100)
	c, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(data) {
		t.Fatalf("repetitive data did not compress: %d >= %d", len(c), len(data))
	}
	d, err := decompress(c, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestCompressEmpty(t *testing.T) {
	c, err := Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decompress(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Fatalf("empty roundtrip gave %d bytes", len(d))
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := decompress([]byte{0x42, 0x42, 0x42}, 1<<20); err == nil {
		t.Fatal("garbage should error")
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		c, err := Compress(data)
		if err != nil {
			return false
		}
		d, err := decompress(c, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// freshDeflate is the stream a new level-9 writer makes of data.
func freshDeflate(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLosslessPoolStateless runs Compress and an Inflater from eight
// goroutines at once over inputs of very different sizes, each
// goroutine in its own order, so pooled writers and inflaters pass from
// big inputs to small ones and back. Every stream must equal a fresh
// writer's byte for byte, and every inflate its input, with a corrupt
// stream inflated between two valid ones on every turn.
func TestLosslessPoolStateless(t *testing.T) {
	rng := xrand.New(12)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	inputs := [][]byte{nil, {0x5a}, random(64<<10 + 1), random(1 << 20), make([]byte, 1<<20)}
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		want[i] = freshDeflate(t, in)
	}
	corrupt := append([]byte(nil), want[2][:len(want[2])/2]...)
	corrupt[len(corrupt)/3] ^= 0xff
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range inputs {
				i := (g + k) % len(inputs)
				got, err := Compress(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: input %d: pooled stream differs from a fresh writer's", g, i)
				}
				if _, err := decompress(corrupt, 1<<21); err == nil {
					t.Errorf("goroutine %d: corrupt stream inflated without error", g)
				}
				d, err := decompress(got, len(inputs[i]))
				if err != nil {
					t.Errorf("goroutine %d: input %d: %v", g, i, err)
				} else if !bytes.Equal(d, inputs[i]) {
					t.Errorf("goroutine %d: input %d: inflated bytes differ", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestInflateLimit pins the bound: a stream inflates to exactly its
// limit, and one byte less fails with ErrTooLong.
func TestInflateLimit(t *testing.T) {
	data := bytes.Repeat([]byte("bounded "), 1000)
	c, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := decompress(c, len(data)); err != nil || !bytes.Equal(d, data) {
		t.Fatalf("stream at its limit: %v", err)
	}
	if _, err := decompress(c, len(data)-1); !errors.Is(err, ErrTooLong) {
		t.Fatalf("stream past its limit: got %v, want ErrTooLong", err)
	}
}
