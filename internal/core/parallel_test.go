package core

import (
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// TestAnalyzeSerialParallelIdentical asserts the orchestration-layer
// determinism contract: Analyze at Workers 1 and Workers N produces
// bit-identical statistics on a seeded field.
func TestAnalyzeSerialParallelIdentical(t *testing.T) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 10, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{Window: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{Window: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(serial) {
			t.Fatalf("workers=%d: %+v != serial %+v", workers, par, serial)
		}
	}
}

func TestAnalyzeSkipLocalHonorsWorkers(t *testing.T) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{SkipLocal: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{SkipLocal: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(serial) {
		t.Fatalf("SkipLocal results differ: %+v vs %+v", par, serial)
	}
}

// TestMeasureFieldsSerialParallelIdentical runs the full
// analyze+compress pipeline over several fields and requires identical
// measurements from the serial and parallel pools.
func TestMeasureFieldsSerialParallelIdentical(t *testing.T) {
	var fields []*field.Field
	var labels []float64
	for i, rang := range []float64{4, 8, 16} {
		f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: rang, Seed: uint64(50 + i)})
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	reg := DefaultRegistry()
	opts := MeasureOptions{
		Analysis:    AnalysisOptions{Window: 16},
		ErrorBounds: []float64{1e-3},
	}
	optsSerial := opts
	optsSerial.Workers = 1
	serial, err := MeasureFieldSetCtx(bg, "eq", fields, labels, reg, optsSerial)
	if err != nil {
		t.Fatal(err)
	}
	optsPar := opts
	optsPar.Workers = 8
	par, err := MeasureFieldSetCtx(bg, "eq", fields, labels, reg, optsPar)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if !serial[i].Stats.Equal(par[i].Stats) {
			t.Fatalf("field %d stats differ: %+v vs %+v", i, serial[i].Stats, par[i].Stats)
		}
		if len(serial[i].Results) != len(par[i].Results) {
			t.Fatalf("field %d result count differs", i)
		}
		for j := range serial[i].Results {
			if serial[i].Results[j] != par[i].Results[j] {
				t.Fatalf("field %d result %d differs: %+v vs %+v",
					i, j, serial[i].Results[j], par[i].Results[j])
			}
		}
	}
}

// TestMeasureFieldsErrorDeterministic: with several failing fields the
// reported error must belong to the lowest index at any worker count.
func TestMeasureFieldsErrorDeterministic(t *testing.T) {
	// Constant fields make Analyze fail (no usable windows).
	fields := []*field.Field{field.New(64, 64), field.New(64, 64), field.New(64, 64)}
	reg := DefaultRegistry()
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, err := MeasureFieldSetCtx(bg, "bad", fields, nil, reg, MeasureOptions{
			Analysis: AnalysisOptions{Window: 16},
			Workers:  workers,
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error on constant fields", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error not deterministic across worker counts: %q vs %q", msgs[0], msgs[1])
	}
}
