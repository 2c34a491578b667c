package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/szlike"
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

// hookCodec is a real codec whose float64 encode runs through hook,
// under a name of its own.
type hookCodec struct {
	compress.FieldCompressor
	name string
	hook func(f *field.Field, eb float64) ([]byte, error)
}

func (c hookCodec) Name() string { return c.name }

func (c hookCodec) CompressField(f *field.Field, eb float64) ([]byte, error) {
	return c.hook(f, eb)
}

// TestMeasureCellErrorPrecedence fails two of a field's codec × bound
// cells, one in its encode (a refused stream) and one in its bound check
// (a stream made at 100 times the bound), in either order, and requires
// the lower cell's error at every worker count; a context cancelled
// inside the first cell's encode stops the cells and returns ctx.Err().
func TestMeasureCellErrorPrecedence(t *testing.T) {
	f := smallField(t, 8, 61)
	sz := szlike.Compressor{}
	refuse := func(*field.Field, float64) ([]byte, error) { return nil, errors.New("refused") }
	loosen := func(g *field.Field, eb float64) ([]byte, error) { return sz.CompressField(g, 100*eb) }
	// failAt runs fail at bound bad and the codec's own encode elsewhere.
	failAt := func(name string, bad float64, fail func(*field.Field, float64) ([]byte, error)) hookCodec {
		return hookCodec{sz, name, func(g *field.Field, eb float64) ([]byte, error) {
			if eb == bad {
				return fail(g, eb)
			}
			return sz.CompressField(g, eb)
		}}
	}
	for _, tc := range []struct {
		a, b hookCodec // registered in name order: a's cells come first
		want string
	}{
		{failAt("a", 1e-3, loosen), failAt("b", 1e-4, refuse),
			"core: field 0: a violated bound 0.001"},
		{failAt("a", 1e-3, refuse), failAt("b", 1e-4, loosen),
			"core: field 0: compress: a: refused"},
	} {
		reg := compress.NewRegistry()
		for _, c := range []compress.FieldCompressor{tc.a, tc.b} {
			if err := reg.RegisterField(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			_, err := MeasureFieldSetCtx(bg, "cells", []*field.Field{f}, nil, reg, MeasureOptions{
				Analysis: AnalysisOptions{SkipLocal: true}, Workers: workers,
			})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("workers=%d: err = %v, want prefix %q", workers, err, tc.want)
			}
		}
	}

	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(bg)
		var encodes atomic.Int32
		reg := compress.NewRegistry()
		for _, name := range []string{"a", "b"} {
			_ = reg.RegisterField(hookCodec{sz, name, func(g *field.Field, eb float64) ([]byte, error) {
				encodes.Add(1)
				cancel()
				return sz.CompressField(g, eb)
			}})
		}
		_, err := MeasureFieldSetCtx(ctx, "cells", []*field.Field{f}, nil, reg, MeasureOptions{
			Analysis: AnalysisOptions{SkipLocal: true}, Workers: workers,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A worker may have claimed a second cell before the cancel.
		if n := encodes.Load(); n > 2 {
			t.Fatalf("workers=%d: %d of 8 cells encoded after a cancel in the first", workers, n)
		}
		cancel()
	}
}

// TestMeasureOneEncodeAtATime counts the encodes in flight while the
// default codecs measure one field at a time on a pool of 4: a
// measurement's cells may overlap, but never two encodes. Whether they
// did overlap depends on timing, so it is not asserted. Every
// measurement's results equal a serial run's bit for bit.
func TestMeasureOneEncodeAtATime(t *testing.T) {
	f := smallField(t, 6, 62)
	fs := []*field.Field{f}
	opts := MeasureOptions{Analysis: AnalysisOptions{SkipLocal: true}, Workers: 1}
	want, err := MeasureFieldSetCtx(bg, "serial", fs, nil, DefaultRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int32
	reg := compress.NewRegistry()
	for _, c := range DefaultRegistry().AllFor(2) {
		_ = reg.RegisterField(hookCodec{c, c.Name(), func(g *field.Field, eb float64) ([]byte, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			return c.CompressField(g, eb)
		}})
	}
	opts.Workers = 4
	for rep := range 10 {
		got, err := MeasureFieldSetCtx(bg, "serial", fs, nil, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := peak.Load(); n > 1 {
			t.Fatalf("rep %d: %d encodes in flight in one measurement", rep, n)
		}
		if len(got[0].Results) != len(want[0].Results) {
			t.Fatalf("rep %d: %d results, serial %d", rep, len(got[0].Results), len(want[0].Results))
		}
		for k := range got[0].Results {
			if got[0].Results[k] != want[0].Results[k] {
				t.Fatalf("rep %d cell %d: %+v, serial %+v", rep, k, got[0].Results[k], want[0].Results[k])
			}
		}
	}
}
