package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: lossycorr
cpu: AMD EPYC 7B13
BenchmarkFig1Variogram-8   	       1	 123456789 ns/op
BenchmarkSZLikeCompress-8  	     100	  12345678 ns/op	  42.50 MB/s	  123456 B/op	     789 allocs/op	  11.23 ratio
BenchmarkFig3GaussianGlobalRange-8	       1	999 ns/op	 3.21 CR:sz-like@1e-03	 -1.50 beta:sz-like@1e-03	 0.95 R2:sz-like@1e-03
PASS
ok  	lossycorr	12.3s
pkg: lossycorr/internal/variogram
BenchmarkVariogramExact/n=512-8 	       1	19468307793 ns/op
BenchmarkVariogramFFT/n=512-8   	       4	 305570735 ns/op
PASS
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "lossycorr-bench/v1" || rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("%d benchmarks, want 5", len(rep.Benchmarks))
	}
	sz := rep.Benchmarks[1]
	if sz.Name != "BenchmarkSZLikeCompress-8" || sz.Pkg != "lossycorr" {
		t.Fatalf("sz: %+v", sz)
	}
	if sz.Iterations != 100 || sz.NsPerOp != 12345678 || sz.BytesPerOp != 123456 ||
		sz.AllocsPerOp != 789 || sz.MBPerS != 42.5 || sz.Metrics["ratio"] != 11.23 {
		t.Fatalf("sz fields: %+v", sz)
	}
	fig := rep.Benchmarks[2]
	if fig.Metrics["CR:sz-like@1e-03"] != 3.21 || fig.Metrics["beta:sz-like@1e-03"] != -1.5 ||
		fig.Metrics["R2:sz-like@1e-03"] != 0.95 {
		t.Fatalf("gauges: %+v", fig.Metrics)
	}
	vf := rep.Benchmarks[4]
	if vf.Name != "BenchmarkVariogramFFT/n=512-8" || vf.Pkg != "lossycorr/internal/variogram" {
		t.Fatalf("vf: %+v", vf)
	}
	// The headline check of the perf record: FFT beats exact by the
	// issue's required factor on the sample numbers.
	ex := rep.Benchmarks[3]
	if ex.NsPerOp/vf.NsPerOp < 5 {
		t.Fatalf("sample speedup %v < 5", ex.NsPerOp/vf.NsPerOp)
	}
}

// TestLoadSniffsFormat pins the dual-input contract: the same loader
// accepts raw bench text and an already-converted JSON report, so the
// baseline gate works live in CI and offline on committed records.
func TestLoadSniffsFormat(t *testing.T) {
	fromText, err := load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText.Benchmarks) != 5 {
		t.Fatalf("text: %d benchmarks, want 5", len(fromText.Benchmarks))
	}
	js, err := json.Marshal(fromText)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := load(strings.NewReader("\n  " + string(js)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText, fromJSON) {
		t.Fatalf("JSON re-load diverged:\n%+v\n%+v", fromText, fromJSON)
	}
	empty, err := load(strings.NewReader(""))
	if err != nil || len(empty.Benchmarks) != 0 {
		t.Fatalf("empty input: (%+v, %v)", empty, err)
	}
	if _, err := load(strings.NewReader("{broken json")); err == nil {
		t.Fatal("expected JSON error")
	}
}

// TestCompareBaseline pins the gate semantics: intersection by name,
// positive delta = slower, only beyond-threshold slowdowns regress,
// and one-sided benchmarks never fail the gate.
func TestCompareBaseline(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000},
		{Name: "BenchmarkB-8", NsPerOp: 1000},
		{Name: "BenchmarkGone-8", NsPerOp: 1000},
		{Name: "BenchmarkGauge-8", Metrics: map[string]float64{"ratio": 2}},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1100},  // +10%: within threshold
		{Name: "BenchmarkB-8", NsPerOp: 1200},  // +20%: regression
		{Name: "BenchmarkNew-8", NsPerOp: 999}, // no baseline: skipped
		{Name: "BenchmarkGauge-8", Metrics: map[string]float64{"ratio": 2}},
	}}
	diffs, regressed := compareBaseline(cur, base, 0.15)
	if len(diffs) != 2 {
		t.Fatalf("diffs %+v, want 2 paired comparisons", diffs)
	}
	// Sorted worst-first.
	if diffs[0].Name != "BenchmarkB-8" || diffs[1].Name != "BenchmarkA-8" {
		t.Fatalf("order: %+v", diffs)
	}
	if len(regressed) != 1 || regressed[0].Name != "BenchmarkB-8" {
		t.Fatalf("regressed %+v, want only BenchmarkB-8", regressed)
	}
	if d := regressed[0].Delta; d < 0.199 || d > 0.201 {
		t.Fatalf("delta %v, want 0.2", d)
	}
	// A faster current run never regresses, at any threshold.
	fast := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkB-8", NsPerOp: 500}}}
	if _, reg := compareBaseline(fast, base, 0); len(reg) != 0 {
		t.Fatalf("speedup flagged as regression: %+v", reg)
	}
}

// TestParseFoldsCount pins the -count folding: repeated rows of one
// benchmark become its median-ns/op row (gauges from that same row)
// with the sample count, the same name in another package stays apart,
// and order follows first appearance.
func TestParseFoldsCount(t *testing.T) {
	rep, err := parse(strings.NewReader(`pkg: a
BenchmarkX 	3	 300 ns/op	 3 peakMB
BenchmarkY 	3	 50 ns/op
BenchmarkX 	3	 100 ns/op	 1 peakMB
BenchmarkX 	3	 200 ns/op	 2 peakMB
BenchmarkX 	3	 900 ns/op	 9 peakMB
pkg: b
BenchmarkX 	3	 7 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("%d records, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	x := rep.Benchmarks[0]
	if x.Name != "BenchmarkX" || x.Pkg != "a" || x.NsPerOp != 200 || x.Metrics["peakMB"] != 2 || x.Samples != 4 {
		t.Fatalf("folded X: %+v", x)
	}
	if y := rep.Benchmarks[1]; y.Name != "BenchmarkY" || y.Samples != 0 {
		t.Fatalf("single Y: %+v", y)
	}
	if xb := rep.Benchmarks[2]; xb.Pkg != "b" || xb.NsPerOp != 7 {
		t.Fatalf("package-b X: %+v", xb)
	}
}

// TestOneSided pins the listing of benchmarks present in only one
// record: retired rows (baseline only) and added rows (current only).
func TestOneSided(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkA"}, {Name: "BenchmarkGoneB"}, {Name: "BenchmarkGoneA"}}}
	cur := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkA"}, {Name: "BenchmarkNew"}}}
	retired, added := oneSided(cur, base)
	if len(retired) != 2 || retired[0] != "BenchmarkGoneA" || retired[1] != "BenchmarkGoneB" {
		t.Fatalf("retired %v", retired)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Fatalf("added %v", added)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkBroken-8\nBenchmarkAlso --- FAIL\nnot a line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("expected no benchmarks, got %+v", rep.Benchmarks)
	}
	if _, err := parse(strings.NewReader("BenchmarkOdd-8 3 42 ns/op 7\n")); err == nil {
		t.Fatal("expected odd-field error")
	}
	if _, err := parse(strings.NewReader("BenchmarkBad-8 3 xx ns/op\n")); err == nil {
		t.Fatal("expected bad-value error")
	}
}
