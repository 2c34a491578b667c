package core

import (
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// BenchmarkAnalyzeReaderStream measures the out-of-core analysis
// pipeline on a volume more than 4× its memory budget — the PR's
// acceptance shape. MB/s rates the full widened volume per pass;
// fftPeakMB is the transform pool's actual peak, which the budget
// bounds, and budgetMB the bound it had to stay under.
func BenchmarkAnalyzeReaderStream(b *testing.B) {
	shape := []int{40, 64, 64}
	rng := xrand.New(4242)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	path := filepath.Join(b.TempDir(), "field.lcf")
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.WriteBinary(out); err != nil {
		b.Fatal(err)
	}
	if err := out.Close(); err != nil {
		b.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()

	const budget = int64(300 << 10)
	opts := AnalysisOptions{Window: 16, MemBudget: budget}
	b.SetBytes(int64(tr.Len()) * 8)
	fft.ResetPeakBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeReaderCtx(bg, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
	b.ReportMetric(float64(budget)/(1<<20), "budgetMB")
}

// BenchmarkAnalyzeReaderSlurp is the in-RAM control: the same file and
// options with the budget lifted, so the streamed variant's cost shows
// as the delta between the two names.
func BenchmarkAnalyzeReaderSlurp(b *testing.B) {
	shape := []int{40, 64, 64}
	rng := xrand.New(4242)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	path := filepath.Join(b.TempDir(), "field.lcf")
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.WriteBinary(out); err != nil {
		b.Fatal(err)
	}
	if err := out.Close(); err != nil {
		b.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()

	opts := AnalysisOptions{Window: 16}
	b.SetBytes(int64(tr.Len()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeReaderCtx(bg, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}
