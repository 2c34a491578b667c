package compress_test

import (
	"fmt"
	"strings"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// BenchmarkCodec is the codec layer row: compress and decompress of
// every registered codec at 1e-3, per rank and lane, on a 512² and a
// 64³ Gaussian field (the benchmark ladder's workloads). Rows are named
// <codec>/<rank>d/<lane>/{compress,decompress}; pairing the f64 and f32
// rows of one codec shows what the float32 lane costs or saves.
func BenchmarkCodec(b *testing.B) {
	g, err := gaussian.Generate(gaussian.Params{Rows: 512, Cols: 512, Range: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 64, Ny: 64, Nx: 64, Range: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	fields := map[int]*field.Field{2: g, 3: v}
	const eb = 1e-3
	for _, rank := range []int{2, 3} {
		f := fields[rank]
		f32 := f.Narrow()
		for _, c := range core.DefaultRegistry().AllFor(rank) {
			name := fmt.Sprintf("%s/%dd", strings.TrimSuffix(c.Name(), "-3d"), rank)
			benchLane(b, name+"/f64", f.SizeBytes(),
				func() ([]byte, error) { return c.CompressField(f, eb) },
				func(data []byte) error { _, err := c.DecompressField(data); return err })
			if l, ok := c.(compress.Lane32Compressor); ok {
				benchLane(b, name+"/f32", f32.SizeBytes(),
					func() ([]byte, error) { return l.CompressField32(f32, eb) },
					func(data []byte) error { _, err := l.DecompressField32(data); return err })
			}
		}
	}
}

func benchLane(b *testing.B, name string, bytes int, enc func() ([]byte, error), dec func([]byte) error) {
	data, err := enc()
	if err != nil {
		b.Fatal(err)
	}
	b.Run(name+"/compress", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			if _, err := enc(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bytes)/float64(len(data)), "ratio")
	})
	b.Run(name+"/decompress", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		for i := 0; i < b.N; i++ {
			if err := dec(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
