package lossless

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// shuffle reorders data so that byte k of every width-sized record is
// contiguous (a transpose of the records×width byte matrix). len(data)
// must be a multiple of width.
func shuffle(data []byte, width int) ([]byte, error) {
	if width <= 0 || len(data)%width != 0 {
		return nil, fmt.Errorf("lossless: shuffle width %d does not divide %d", width, len(data))
	}
	n := len(data) / width
	out := make([]byte, len(data))
	for i := 0; i < n; i++ {
		for b := 0; b < width; b++ {
			out[b*n+i] = data[i*width+b]
		}
	}
	return out, nil
}

// unshuffle inverts shuffle.
func unshuffle(data []byte, width int) ([]byte, error) {
	if width <= 0 || len(data)%width != 0 {
		return nil, fmt.Errorf("lossless: unshuffle width %d does not divide %d", width, len(data))
	}
	n := len(data) / width
	out := make([]byte, len(data))
	for i := 0; i < n; i++ {
		for b := 0; b < width; b++ {
			out[i*width+b] = data[b*n+i]
		}
	}
	return out, nil
}

func TestShuffleRoundtrip(t *testing.T) {
	rng := xrand.New(4)
	data := make([]byte, 8*100)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	s, err := shuffle(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	u, err := unshuffle(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u, data) {
		t.Fatal("shuffle roundtrip mismatch")
	}
}

func TestShuffleLayout(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6} // two 3-byte records
	s, err := shuffle(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 4, 2, 5, 3, 6}
	if !bytes.Equal(s, want) {
		t.Fatalf("shuffle %v want %v", s, want)
	}
}

func TestShuffleErrors(t *testing.T) {
	if _, err := shuffle([]byte{1, 2, 3}, 2); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := shuffle([]byte{1, 2}, 0); err == nil {
		t.Fatal("expected width error")
	}
	if _, err := unshuffle([]byte{1, 2, 3}, 2); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestQuickShuffle(t *testing.T) {
	f := func(data []byte) bool {
		width := 8
		data = data[:len(data)/width*width]
		s, err := shuffle(data, width)
		if err != nil {
			return false
		}
		u, err := unshuffle(s, width)
		if err != nil {
			return false
		}
		return bytes.Equal(u, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblationByteShuffle measures how much a byte-shuffle filter
// ahead of DEFLATE would improve the ratio on raw float64 field data.
// No codec shuffles; the filter lives here only for this ablation.
func BenchmarkAblationByteShuffle(b *testing.B) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 256, Cols: 256, Range: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, 0, f.SizeBytes())
	for _, v := range f.Data {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	for _, shuffled := range []bool{false, true} {
		name := "plain"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			var size int
			for i := 0; i < b.N; i++ {
				in := raw
				if shuffled {
					var err error
					in, err = shuffle(raw, 8)
					if err != nil {
						b.Fatal(err)
					}
				}
				out, err := Compress(in)
				if err != nil {
					b.Fatal(err)
				}
				size = len(out)
			}
			b.ReportMetric(float64(len(raw))/float64(size), "ratio")
		})
	}
}
