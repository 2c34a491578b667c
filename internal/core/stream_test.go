package core

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

func tempReader(t *testing.T, write func(w io.Writer) error) *field.TileReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.lcf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestAnalyzeReaderOutOfCore is the PR's acceptance scenario: a 3D
// volume more than 4× the memory budget, analyzed end to end with the
// windowed statistics and sampled global variogram bit-identical to the
// in-RAM analysis, and the transform pool's peak gauge under the
// budget.
func TestAnalyzeReaderOutOfCore(t *testing.T) {
	shape := []int{40, 64, 64} // 1.25 MiB widened
	rng := xrand.New(1234)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	tr := tempReader(t, f.WriteBinary)

	const budget = int64(300 << 10) // < 1/4 of the widened volume
	if int64(tr.Len()*8) < 4*budget {
		t.Fatalf("test volume %d B is not 4x the %d B budget", tr.Len()*8, budget)
	}
	opts := AnalysisOptions{Window: 16, MemBudget: budget, Workers: 3}
	want, err := AnalyzeFieldCtx(context.Background(), f, AnalysisOptions{Window: 16, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	fft.ResetPeakBytes()
	got, err := AnalyzeReaderCtx(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak := fft.PeakBytes()
	if !got.Equal(want) {
		t.Fatalf("streamed stats %+v != in-RAM %+v", got, want)
	}
	if peak > budget {
		t.Fatalf("peak pool bytes %d exceed budget %d", peak, budget)
	}
	if peak == 0 {
		t.Fatal("streaming analysis did not touch the transform pool")
	}
}

// TestAnalyzeReaderOutOfCoreFFT runs the same scenario with the
// spectral global variogram, selected either way the options allow:
// the sharded engine's pair counts are exact, so Gamma (and the fitted
// range) agree with the in-RAM FFT analysis to roundoff; windowed
// statistics stay bit-identical. The in-RAM engine's working set
// exceeds the budget, so either selection must stream.
func TestAnalyzeReaderOutOfCoreFFT(t *testing.T) {
	// Elongated along axis 0: the spectral shard streams axis-0 slabs,
	// so this shape shards well below the in-RAM transform footprint.
	shape := []int{256, 32, 32}
	rng := xrand.New(5678)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	tr := tempReader(t, f.WriteBinary)

	const budget = int64(10 << 20)
	if variogram.FFTPeakBytes(shape, 0) <= budget {
		t.Fatalf("in-RAM spectral working set %d B fits the %d B budget", variogram.FFTPeakBytes(shape, 0), budget)
	}
	want, err := AnalyzeFieldCtx(context.Background(), f, AnalysisOptions{Window: 16, Workers: 2, VariogramFFT: true})
	if err != nil {
		t.Fatal(err)
	}
	// Spectral global range: tolerance-equivalent.
	relDiff := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		m := b
		if m < 0 {
			m = -m
		}
		if m == 0 {
			return d
		}
		return d / m
	}
	for _, c := range []struct {
		name string
		opts AnalysisOptions
	}{
		{"VariogramFFT", AnalysisOptions{VariogramFFT: true}},
		{"VariogramOpts.FFT", AnalysisOptions{VariogramOpts: variogram.Options{FFT: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Window, opts.MemBudget, opts.Workers = 16, budget, 2
			fft.ResetPeakBytes()
			got, err := AnalyzeReaderCtx(context.Background(), tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if peak := fft.PeakBytes(); peak > budget {
				t.Fatalf("peak pool bytes %d exceed budget %d", peak, budget)
			}
			// Windowed statistics: bit-identical.
			if got.LocalRangeStd() != want.LocalRangeStd() || got.LocalSVDStd() != want.LocalSVDStd() {
				t.Fatalf("windowed stats differ: %+v vs %+v", got, want)
			}
			if relDiff(got.GlobalRange(), want.GlobalRange()) > 1e-6 || relDiff(got.GlobalSill(), want.GlobalSill()) > 1e-6 {
				t.Fatalf("spectral global fit differs: %+v vs %+v", got, want)
			}
		})
	}
}

// TestAnalyzeReaderSlurp: under-budget files take the in-RAM path on
// their stored lane, bit-identical to direct analysis — both lanes.
func TestAnalyzeReaderSlurp(t *testing.T) {
	shape := []int{48, 52}
	rng := xrand.New(9)
	f := field.New(shape...)
	f32 := field.New32(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
		f32.Data[i] = float32(f.Data[i])
	}
	opts := AnalysisOptions{Window: 16, MemBudget: 1 << 30}

	tr := tempReader(t, f.WriteBinary)
	want, err := AnalyzeFieldCtx(bg, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeReaderCtx(bg, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("slurped stats %+v != direct %+v", got, want)
	}

	tr32 := tempReader(t, f32.WriteBinary)
	want32, err := AnalyzeFieldCtx(bg, f32, opts)
	if err != nil {
		t.Fatal(err)
	}
	got32, err := AnalyzeReaderCtx(bg, tr32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got32.Equal(want32) {
		t.Fatalf("slurped f32 stats %+v != direct %+v", got32, want32)
	}
}

// TestAnalyzeReaderStreamF32: an over-budget float32 file streams with
// windowed statistics bit-identical to the in-RAM float32 lane.
func TestAnalyzeReaderStreamF32(t *testing.T) {
	shape := []int{40, 64, 64}
	rng := xrand.New(77)
	f32 := field.New32(shape...)
	for i := range f32.Data {
		f32.Data[i] = float32(rng.NormFloat64())
	}
	tr := tempReader(t, f32.WriteBinary)
	const budget = int64(200 << 10)
	want, err := AnalyzeFieldCtx(bg, f32, AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeReaderCtx(bg, tr, AnalysisOptions{Window: 16, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("streamed f32 stats %+v != in-RAM %+v", got, want)
	}
}

// TestAnalyzeReaderBudgetTooSmall: a budget below one window surfaces
// the planner's error instead of over-allocating.
func TestAnalyzeReaderBudgetTooSmall(t *testing.T) {
	shape := []int{64, 64}
	f := field.New(shape...)
	rng := xrand.New(3)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	tr := tempReader(t, f.WriteBinary)
	_, err := AnalyzeReaderCtx(bg, tr, AnalysisOptions{
		Window: 32, MemBudget: 4 << 10,
		VariogramOpts: variogram.Options{MaxPairs: 100},
	})
	if err == nil {
		t.Fatal("expected planner error for sub-window budget")
	}
}

// TestInRAMBytesFollowsSelection pins when the in-RAM estimate counts
// the spectral working set: with the FFT on under either spelling and a
// selection that runs the global variogram (empty, or naming it), and
// never for a selection without it. Under a budget that holds the field
// but not the transform, such an FFT analysis is read whole: it touches
// no transform buffer, as a streamed one would.
func TestInRAMBytesFollowsSelection(t *testing.T) {
	shape := []int{32, 32}
	rng := xrand.New(91)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	tr := tempReader(t, f.WriteBinary)
	fieldBytes := int64(f.Len() * 8)
	spectral := fieldBytes + variogram.FFTPeakBytes(shape, 0)
	for _, c := range []struct {
		name string
		o    AnalysisOptions
		want int64
	}{
		{"fft off", AnalysisOptions{Stats: []string{"variogram"}}, fieldBytes},
		{"all", AnalysisOptions{VariogramFFT: true}, spectral},
		{"VariogramOpts.FFT", AnalysisOptions{VariogramOpts: variogram.Options{FFT: true}}, spectral},
		{"variogram selected", AnalysisOptions{VariogramFFT: true, Stats: []string{"svd", "variogram"}}, spectral},
		{"svd only", AnalysisOptions{VariogramFFT: true, Stats: []string{"svd"}}, fieldBytes},
		{"windowed only", AnalysisOptions{VariogramOpts: variogram.Options{FFT: true}, Stats: []string{"localrange", "svd"}}, fieldBytes},
	} {
		if got := inRAMBytes(tr, c.o.withDefaults()); got != c.want {
			t.Errorf("%s: inRAMBytes %d, want %d", c.name, got, c.want)
		}
	}

	opts := AnalysisOptions{Window: 8, VariogramFFT: true, Stats: []string{"svd"}, MemBudget: fieldBytes}
	want, err := AnalyzeFieldCtx(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	fft.ResetPeakBytes()
	got, err := AnalyzeReaderCtx(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if peak := fft.PeakBytes(); peak != 0 {
		t.Fatalf("svd-only FFT analysis streamed (%d pool bytes) under a budget that holds the field", peak)
	}
	if !got.Equal(want) {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
