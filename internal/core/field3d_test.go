package core

import (
	"context"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/variogram"
)

func testVolume(t testing.TB, n int, rang float64, seed uint64) *field.Field {
	t.Helper()
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: n, Ny: n, Nx: n, Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAnalyzeVolumeSerialParallelIdentical extends the determinism
// contract to rank 3: all three statistics of a volume are
// bit-identical at any worker count.
func TestAnalyzeVolumeSerialParallelIdentical(t *testing.T) {
	f := testVolume(t, 24, 3, 11)
	opts := AnalysisOptions{Window: 8, Workers: 1, VariogramOpts: variogram.Options{Exact: true}}
	ref, err := AnalyzeFieldCtx(bg, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.GlobalRange() <= 0 || ref.LocalSVDStd() < 0 {
		t.Fatalf("degenerate stats %+v", ref)
	}
	for _, w := range []int{2, 4, 16} {
		opts.Workers = w
		got, err := AnalyzeFieldCtx(bg, f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Fatalf("workers=%d: %+v want %+v", w, got, ref)
		}
	}
}

// TestMeasureFieldSetMixedRanks measures a grid and a volume in one
// call: each field must sweep the codecs of its own rank.
func TestMeasureFieldSetMixedRanks(t *testing.T) {
	g, err := gaussian.Generate(gaussian.Params{Rows: 48, Cols: 48, Range: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fields := []*field.Field{g, testVolume(t, 16, 2, 3)}
	ms, err := MeasureFieldSetCtx(bg, "mixed", fields, []float64{6, 2}, DefaultRegistry(), MeasureOptions{
		Analysis:    AnalysisOptions{Window: 8},
		ErrorBounds: []float64{1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("%d measurements", len(ms))
	}
	names2 := map[string]bool{}
	for _, r := range ms[0].Results {
		names2[r.Compressor] = true
		if !r.BoundOK {
			t.Fatalf("2D bound violated: %+v", r)
		}
	}
	if !names2["sz-like"] || !names2["zfp-like"] || !names2["mgard-like"] || len(names2) != 3 {
		t.Fatalf("2D field swept %v", names2)
	}
	names3 := map[string]bool{}
	for _, r := range ms[1].Results {
		names3[r.Compressor] = true
		if !r.BoundOK {
			t.Fatalf("3D bound violated: %+v", r)
		}
	}
	if !names3["sz-like-3d"] || !names3["zfp-like-3d"] || !names3["mgard-like-3d"] || len(names3) != 3 {
		t.Fatalf("3D field swept %v", names3)
	}
	if ms[1].Stats.GlobalRange() <= 0 {
		t.Fatalf("volume stats %+v", ms[1].Stats)
	}
}

// TestMeasureFieldSetSerialParallelIdentical extends the 2D MeasureFieldSet
// determinism test to volumes.
func TestMeasureFieldSetSerialParallelIdentical(t *testing.T) {
	fields := []*field.Field{
		testVolume(t, 16, 2, 5),
		testVolume(t, 16, 4, 6),
	}
	opts := MeasureOptions{
		Analysis:    AnalysisOptions{Window: 8},
		ErrorBounds: []float64{1e-3},
		Workers:     1,
	}
	ref, err := MeasureFieldSetCtx(bg, "vols", fields, nil, DefaultRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	got, err := MeasureFieldSetCtx(bg, "vols", fields, nil, DefaultRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !got[i].Stats.Equal(ref[i].Stats) {
			t.Fatalf("field %d stats differ: %+v vs %+v", i, got[i].Stats, ref[i].Stats)
		}
		for j := range ref[i].Results {
			if got[i].Results[j] != ref[i].Results[j] {
				t.Fatalf("field %d result %d differs", i, j)
			}
		}
	}
}

// TestPredictorFromVolumes trains log models on 3D measurements and
// selects a rank-3 codec for an unseen volume — the forward
// application running end to end on volumes.
func TestPredictorFromVolumes(t *testing.T) {
	var ms []Measurement
	for i, rang := range []float64{1.5, 2.5, 4, 6} {
		f := testVolume(t, 16, rang, uint64(20+i))
		m, err := measureOne(context.Background(), "train3d", i, f, nil, DefaultRegistry(),
			[]float64{1e-3}, AnalysisOptions{SkipLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	p, err := TrainPredictor(ms, XGlobalRange)
	if err != nil {
		t.Fatal(err)
	}
	target := testVolume(t, 16, 3, 99)
	stats, err := AnalyzeFieldCtx(bg, target, AnalysisOptions{SkipLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.SelectCompressor(1e-3, stats)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Compressor != "sz-like-3d" && sel.Compressor != "zfp-like-3d" {
		t.Fatalf("selected non-3D codec %q", sel.Compressor)
	}
	if _, err := p.PredictRatio(sel.Compressor, 1e-3, stats); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyze3D(b *testing.B) {
	f := testVolume(b, 32, 4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{Window: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
