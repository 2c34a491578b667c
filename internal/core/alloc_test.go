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
// global statistics included) allocates ~1.3 MB in ~300 allocations,
// nearly all of it the compressed streams and the reconstructed fields,
// once the lossless stage reuses its flate state and the entropy and
// payload scratch is pooled. A fresh level-9 flate writer per cell
// costs ~1.4 MB each and put the same measurement at ~16 MB in ~1050
// allocations, so the bounds catch any return to it. The collector is
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
	if bytes > 4e6 {
		t.Errorf("MeasureFieldSetCtx allocates %.2f MB per op, want <= 4 MB", bytes/1e6)
	}
	if allocs > 500 {
		t.Errorf("MeasureFieldSetCtx allocates %v times per op, want <= 500", allocs)
	}
}
