package core

import (
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// TestAnalyzeFieldAllocs pins the windowed statistics' allocation
// profile: with window extraction pooled, the exact scan's offset
// enumeration cached, and scanOffset's odometer hoisted, a serial
// 96×96 analysis sits under 1200 allocations. The pre-pooling pipeline
// spent ~12000 on the same field (fresh window storage and offset
// tables per tile), so the bound has wide headroom yet catches any
// return to per-window allocation.
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
	if allocs > 1200 {
		t.Fatalf("AnalyzeField allocates %v per op, want <= 1200", allocs)
	}
}
