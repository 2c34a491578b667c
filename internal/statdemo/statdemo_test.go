package statdemo_test

// The acceptance proof for pluggable statistics: this test imports the
// demo kernel package (whose init registers "meanstd") alongside the
// unmodified core and service packages, and checks that the new kernel
// is selectable through core's Stats option, advertised by
// GET /v1/stats, computable via analyze?stats=meanstd, and
// bit-identical across lanes of parallelism and the streamed path —
// all without a single edit to core or service.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/service"
	_ "lossycorr/internal/statdemo"
)

func demoField(t testing.TB) *field.Field {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 56, Range: 9, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDemoKernelThroughCore selects the demo kernel by name through the
// standard analysis entry point and checks the result set carries
// exactly its output, bit-identical at every worker count.
func TestDemoKernelThroughCore(t *testing.T) {
	f := demoField(t)
	var ref core.Statistics
	for _, workers := range []int{1, 4, 8} {
		st, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{
			Window: 16, Workers: workers, Stats: []string{"meanstd"},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		v, ok := st["localMeanStd"]
		if !ok || len(st) != 1 {
			t.Fatalf("workers=%d: want exactly localMeanStd, got %v", workers, st)
		}
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("workers=%d: implausible localMeanStd %v", workers, v)
		}
		if ref == nil {
			ref = st
		} else if !st.Equal(ref) {
			t.Fatalf("workers=%d: %v != workers=1 result %v", workers, st, ref)
		}
	}
}

// TestDemoKernelStreamedMatchesRAM runs the demo kernel over a
// dataset-backed tile reader under a tight budget and checks
// bit-identity with the in-RAM sweep.
func TestDemoKernelStreamedMatchesRAM(t *testing.T) {
	f := demoField(t)
	opts := core.AnalysisOptions{Window: 16, Workers: 4, Stats: []string{"meanstd"}}
	ram, err := core.AnalyzeFieldCtx(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "demo.bin")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBinary(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	opts.MemBudget = 24576 // force multi-tile streaming
	streamed, err := core.AnalyzeReaderCtx(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Equal(ram) {
		t.Fatalf("streamed %v != in-RAM %v", streamed, ram)
	}
}

// TestDemoKernelThroughService proves the service surfaces pick the
// kernel up from the registry alone: GET /v1/stats lists it and
// analyze?stats=meanstd computes it.
func TestDemoKernelThroughService(t *testing.T) {
	s := service.New(service.Config{})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap service.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, k := range snap.Kernels {
		if k.Name == "meanstd" {
			found = true
			if !k.Windowed || !k.Streaming || k.FFT {
				t.Fatalf("meanstd caps wrong: %+v", k)
			}
			if len(k.Outputs) != 1 || k.Outputs[0] != "localMeanStd" {
				t.Fatalf("meanstd outputs %v", k.Outputs)
			}
		}
	}
	if !found {
		t.Fatalf("meanstd not listed in %+v", snap.Kernels)
	}

	var buf bytes.Buffer
	if err := demoField(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/analyze?stats=meanstd", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var env struct {
		Result struct {
			Stats map[string]float64 `json:"stats"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	st := env.Result.Stats
	if v, ok := st["localMeanStd"]; !ok || len(st) != 1 || v <= 0 {
		t.Fatalf("want exactly a positive localMeanStd, got %v", st)
	}
}
