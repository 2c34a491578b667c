package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/mgardlike"
	"lossycorr/internal/szlike"
	"lossycorr/internal/zfplike"
)

var bg = context.Background()

func smallField(t *testing.T, rang float64, seed uint64) *field.Field {
	t.Helper()
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAnalyzeProducesAllStatistics(t *testing.T) {
	f := smallField(t, 8, 1)
	s, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.GlobalRange() <= 0 || s.GlobalSill() <= 0 {
		t.Fatalf("global stats %+v", s)
	}
	if s.LocalRangeStd() < 0 || s.LocalSVDStd() < 0 {
		t.Fatalf("local stats %+v", s)
	}
	if s.GlobalRange() < 4 || s.GlobalRange() > 16 {
		t.Fatalf("estimated range %v far from 8", s.GlobalRange())
	}
}

func TestAnalyzeSkipLocal(t *testing.T) {
	f := smallField(t, 4, 2)
	s, err := AnalyzeFieldCtx(bg, f, AnalysisOptions{SkipLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.LocalRangeStd() != 0 || s.LocalSVDStd() != 0 {
		t.Fatalf("local stats computed despite SkipLocal: %+v", s)
	}
}

func TestDefaultRegistryHasAllThree(t *testing.T) {
	names := DefaultRegistry().NamesFor(2)
	want := []string{"mgard-like", "sz-like", "zfp-like"}
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v want %v", names, want)
		}
	}
}

// TestRegistryNameRanks pins every registered codec name to the codec
// value behind it and the one rank that value serves. The sz-like
// predictor ablations are rank-2 values outside the registry.
func TestRegistryNameRanks(t *testing.T) {
	reg := DefaultRegistry()
	registered := 0
	for _, tc := range []struct {
		c          compress.FieldCompressor
		name       string
		rank       int
		registered bool
	}{
		{szlike.Compressor{}, "sz-like", 2, true},
		{zfplike.Compressor{}, "zfp-like", 2, true},
		{mgardlike.Compressor{}, "mgard-like", 2, true},
		{szlike.Compressor{Rank: 3}, "sz-like-3d", 3, true},
		{zfplike.Compressor{Rank: 3}, "zfp-like-3d", 3, true},
		{mgardlike.Compressor{Rank: 3}, "mgard-like-3d", 3, true},
		{szlike.Compressor{Mode: szlike.PredictorLorenzoOnly}, "sz-like-lorenzo", 2, false},
		{szlike.Compressor{Mode: szlike.PredictorRegressionOnly}, "sz-like-regression", 2, false},
	} {
		if got := tc.c.Name(); got != tc.name {
			t.Errorf("%#v: name %q, want %q", tc.c, got, tc.name)
		}
		if r := tc.c.Ranks(); len(r) != 1 || r[0] != tc.rank {
			t.Errorf("%s: ranks %v, want [%d]", tc.name, r, tc.rank)
		}
		c, err := reg.GetField(tc.name)
		if !tc.registered {
			if err == nil {
				t.Errorf("%s is registered", tc.name)
			}
			continue
		}
		registered++
		if err != nil || c != tc.c {
			t.Errorf("registry serves %#v (%v) as %s, want %#v", c, err, tc.name, tc.c)
		}
	}
	if names := reg.NamesFor(0); len(names) != registered {
		t.Errorf("registry holds %v, want the %d names above", names, registered)
	}
}

func TestMeasureFieldsEndToEnd(t *testing.T) {
	fields := []*field.Field{smallField(t, 4, 3), smallField(t, 16, 4)}
	labels := []float64{4, 16}
	ms, err := MeasureFieldSetCtx(bg, "test", fields, labels, DefaultRegistry(), MeasureOptions{
		Analysis:    AnalysisOptions{Window: 16},
		ErrorBounds: []float64{1e-3},
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for i, m := range ms {
		if m.Dataset != "test" || m.Index != i || m.Label != labels[i] {
			t.Fatalf("metadata wrong: %+v", m)
		}
		if len(m.Results) != 3 {
			t.Fatalf("want 3 results, got %d", len(m.Results))
		}
		for _, r := range m.Results {
			if !r.BoundOK || r.Ratio <= 1 {
				t.Fatalf("bad result %+v", r)
			}
		}
	}
	// the longer-range field must have a larger estimated range and a
	// better sz-like ratio
	if ms[0].Stats.GlobalRange() >= ms[1].Stats.GlobalRange() {
		t.Fatalf("ranges not ordered: %v vs %v", ms[0].Stats.GlobalRange(), ms[1].Stats.GlobalRange())
	}
	szCR := func(m Measurement) float64 {
		for _, r := range m.Results {
			if r.Compressor == "sz-like" {
				return r.Ratio
			}
		}
		return 0
	}
	if szCR(ms[0]) >= szCR(ms[1]) {
		t.Fatalf("sz CR not increasing with range: %v vs %v", szCR(ms[0]), szCR(ms[1]))
	}
}

func TestMeasureFieldsDeterministicAcrossWorkerCounts(t *testing.T) {
	fields := []*field.Field{smallField(t, 4, 5), smallField(t, 8, 6), smallField(t, 12, 7)}
	opts := func(w int) MeasureOptions {
		return MeasureOptions{
			Analysis:    AnalysisOptions{SkipLocal: true},
			ErrorBounds: []float64{1e-3},
			Workers:     w,
		}
	}
	a, err := MeasureFieldSetCtx(bg, "d", fields, nil, DefaultRegistry(), opts(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureFieldSetCtx(bg, "d", fields, nil, DefaultRegistry(), opts(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Stats.Equal(b[i].Stats) {
			t.Fatalf("worker count changed stats at %d", i)
		}
		for j := range a[i].Results {
			if a[i].Results[j] != b[i].Results[j] {
				t.Fatalf("worker count changed results at %d/%d", i, j)
			}
		}
	}
}

func TestBuildSeriesGrouping(t *testing.T) {
	ms := []Measurement{
		{
			Stats: Statistics{StatGlobalRange: 4},
			Results: []compress.Result{
				{Compressor: "a", ErrorBound: 1e-3, Ratio: 10},
				{Compressor: "b", ErrorBound: 1e-3, Ratio: 5},
			},
		},
		{
			Stats: Statistics{StatGlobalRange: 16},
			Results: []compress.Result{
				{Compressor: "a", ErrorBound: 1e-3, Ratio: 20},
				{Compressor: "b", ErrorBound: 1e-3, Ratio: 6},
			},
		},
	}
	series := BuildSeries(ms, XGlobalRange)
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	if series[0].Compressor != "a" || series[1].Compressor != "b" {
		t.Fatalf("series order %v %v", series[0].Compressor, series[1].Compressor)
	}
	if len(series[0].X) != 2 || series[0].X[0] != 4 || series[0].X[1] != 16 {
		t.Fatalf("series X %v", series[0].X)
	}
	if !series[0].FitOK {
		t.Fatal("fit failed")
	}
	// series a: CR 10 -> 20 over x 4 -> 16: β = 10/ln(4)
	wantBeta := 10 / math.Log(4)
	if math.Abs(series[0].Fit.Beta-wantBeta) > 1e-9 {
		t.Fatalf("beta %v want %v", series[0].Fit.Beta, wantBeta)
	}
}

func TestStatSelectorValueAndString(t *testing.T) {
	s := Statistics{StatGlobalRange: 1, StatLocalRangeStd: 2, StatLocalSVDStd: 3}
	if XGlobalRange.Value(s) != 1 || XLocalRangeStd.Value(s) != 2 || XLocalSVDStd.Value(s) != 3 {
		t.Fatal("selector values wrong")
	}
	if !strings.Contains(XGlobalRange.String(), "global variogram") {
		t.Fatalf("label %q", XGlobalRange.String())
	}
	if !strings.Contains(XLocalSVDStd.String(), "SVD") {
		t.Fatalf("label %q", XLocalSVDStd.String())
	}
}

func TestPanelsByCompressorFilter(t *testing.T) {
	ms := []Measurement{{
		Stats: Statistics{StatGlobalRange: 4},
		Results: []compress.Result{
			{Compressor: "a", ErrorBound: 1e-3, Ratio: 10},
			{Compressor: "a", ErrorBound: 1e-2, Ratio: 30},
		},
	}, {
		Stats: Statistics{StatGlobalRange: 9},
		Results: []compress.Result{
			{Compressor: "a", ErrorBound: 1e-3, Ratio: 12},
			{Compressor: "a", ErrorBound: 1e-2, Ratio: 40},
		},
	}}
	all := PanelsByCompressor(ms, XGlobalRange, -1)
	if len(all) != 1 || len(all[0].Series) != 2 {
		t.Fatalf("panels %+v", all)
	}
	filtered := PanelsByCompressor(ms, XGlobalRange, 1e-2)
	if len(filtered) != 1 || len(filtered[0].Series) != 1 {
		t.Fatalf("filtered panels %+v", filtered)
	}
	if filtered[0].Series[0].ErrorBound != 1e-3 {
		t.Fatalf("wrong series survived filter")
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		ID:    "figX",
		Title: "test",
		Panels: []Panel{{
			Title:  "p",
			XLabel: "x",
			Series: []Series{{Compressor: "a", ErrorBound: 1e-3, X: []float64{1, 2}, Y: []float64{3, 4}}},
		}},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "panel: p", "eb=1e-03", "CR="} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	err := Summarize(&buf, []Series{{Compressor: "c", ErrorBound: 1e-4, Y: []float64{2, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CR∈[2.00, 8.00]") {
		t.Fatalf("summary %q", buf.String())
	}
}

// TestStatisticsMarshalClampsNonFinite pins the wire contract the
// service layer relies on: degenerate fields can yield NaN/Inf
// statistics, which encoding/json rejects, so Statistics marshals them
// clamped to the same sentinels compress.Result uses for PSNR.
func TestStatisticsMarshalClampsNonFinite(t *testing.T) {
	s := Statistics{
		StatGlobalRange:   math.Inf(1),
		StatGlobalSill:    math.Inf(-1),
		StatLocalRangeStd: math.NaN(),
		StatLocalSVDStd:   1.5,
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("non-finite statistics must still marshal: %v", err)
	}
	var got map[string]float64
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round trip of %q: %v", data, err)
	}
	want := map[string]float64{
		"globalRange": 1e308, "globalSill": -1e308, "localRangeStd": 0, "localSVDStd": 1.5,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}

	// Finite statistics must be unaffected by the clamping marshaller.
	fin := Statistics{StatGlobalRange: 12.5, StatGlobalSill: 1, StatLocalRangeStd: 0.25, StatLocalSVDStd: 3}
	data, err = json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	var back Statistics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(fin) {
		t.Fatalf("finite stats round trip: %+v != %+v", back, fin)
	}
}
