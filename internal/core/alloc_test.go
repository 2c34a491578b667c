package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// TestAnalyzeFieldAllocs pins the windowed statistics' allocation
// profile: with window extraction pooled, the exact scan's offset
// enumeration cached, scanOffset's odometer hoisted, and the local
// fits' empirical variograms and the local SVD's Gram matrices and
// eigensolver storage held in pooled per-worker scratch, a serial 96×96
// analysis makes ~83 allocations, none of them per window. The
// pre-pooling pipeline spent ~12000 on the same field (fresh window
// storage and offset tables per tile), and a fresh Gram matrix and
// empirical variogram per window put it at ~254, so the bound of 100
// catches a return to either. The race detector makes sync.Pool drop a
// random quarter of the values put back, each a scratch rebuilt on the
// next batch, so under it the bound is 200.
func TestAnalyzeFieldAllocs(t *testing.T) {
	rng := xrand.New(3)
	f := field.New(96, 96)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	opts := AnalysisOptions{Workers: 1}
	if _, err := AnalyzeFieldCtx(bg, f, opts); err != nil { // warm pools and caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := AnalyzeFieldCtx(bg, f, opts); err != nil {
			t.Fatal(err)
		}
	})
	budget := 100.0
	if raceEnabled {
		budget = 200
	}
	if allocs > budget {
		t.Fatalf("AnalyzeField allocates %v per op, want <= %v", allocs, budget)
	}
}

// TestMeasureFieldAllocs pins the codec round trip's allocation
// profile: a serial 96×96 measurement (3 codecs × 4 paper bounds, the
// global statistics included) allocates ~0.26 MB in ~300 allocations,
// nearly all of it the compressed streams, once the lossless stage
// reuses its flate state, the entropy and payload scratch is pooled, and
// every cell decodes into one pooled reconstruction. Decoding each cell
// into a new field put it at ~1.15–1.45 MB, and a fresh level-9 flate
// writer per cell (~1.4 MB each) at ~16 MB in ~1050 allocations. Over
// 30 runs it read 0.26–0.63 MB: the pools are per P, so a run that
// moves to the other P rebuilds its scratch there, each level-9 writer
// adding 0.28 MB to the per-op mean of five runs. The 1 MB budget is
// the 0.26 MB floor plus room for two and a half such rebuilds, and
// catches a return to a field per cell. The collector is
// off while it measures: scratch.Pool frees idle scratch at every
// collection by design, and this small heap collects every op or two,
// which would measure the collector's pace, not the round trip. The
// race detector makes sync.Pool drop values at random, so the budget
// holds only without it.
func TestMeasureFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled state at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fs := []*field.Field{f}
	reg := DefaultRegistry()
	opts := MeasureOptions{Analysis: AnalysisOptions{SkipLocal: true}, Workers: 1}
	measure := func() {
		if _, err := MeasureFieldSetCtx(bg, "allocs", fs, nil, reg, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools, and the sampled variogram's pair plan, which its
	// key's second request builds.
	measure()
	measure()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		measure()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, measure)
	t.Logf("MeasureFieldSetCtx: %.2f MB, %.0f allocations per op", bytes/1e6, allocs)
	if bytes > 1e6 {
		t.Errorf("MeasureFieldSetCtx allocates %.2f MB per op, want <= 1 MB", bytes/1e6)
	}
	if allocs > 500 {
		t.Errorf("MeasureFieldSetCtx allocates %v times per op, want <= 500", allocs)
	}
}

// BenchmarkMeasureField is the measure-sweep op: one 96×96 field
// measured at the paper bounds, global statistics only, with Workers at
// GOMAXPROCS. Compare B/op at -cpu 1 and -cpu 2: the codecs' weakly
// held scratch (internal/scratch) is rebuilt whenever a collection has
// freed it, and more often when the cells run on more than one P.
func BenchmarkMeasureField(b *testing.B) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	fs := []*field.Field{f}
	reg := DefaultRegistry()
	opts := MeasureOptions{Analysis: AnalysisOptions{SkipLocal: true}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MeasureFieldSetCtx(bg, "bench", fs, nil, reg, opts); err != nil {
			b.Fatal(err)
		}
	}
}
