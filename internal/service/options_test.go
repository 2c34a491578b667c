package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// TestRandomOptionRequests sends seeded random option sets to every
// field route and asserts that the service's one option check is the
// library's: a request is a 400 exactly when it spells a zero window or
// fraction or core.CheckAnalysis rejects the client's options, and
// otherwise it answers (or its job ends) done — never a 500, and never
// an admitted job that fails on an option.
func TestRandomOptionRequests(t *testing.T) {
	_, hs := testServer(t, Config{TrainFields: 4, TrainEdge2D: 32, TrainEdge3D: 12})
	grid, err := gaussian.Generate(gaussian.Params{Rows: 16, Cols: 16, Range: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := gaussian.Generate3D(gaussian.Params3D{Nz: 12, Ny: 12, Nx: 12, Range: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, f := range []*field.Field{grid, vol} {
		for _, write := range []func(*bytes.Buffer) error{
			func(b *bytes.Buffer) error { return f.WriteBinary(b) },
			func(b *bytes.Buffer) error { return f.Narrow().WriteBinary(b) },
		} {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, b.Bytes())
		}
	}
	routes := []string{"/v1/analyze", "/v1/measure", "/v1/predict", "/v1/jobs/analyze"}
	fracs := []float64{0.5, 1, 0, 1.5, math.NaN()}
	kernels := []string{"variogram", "localrange", "svd"}

	rng := xrand.New(43)
	for i := range 400 {
		window := rng.Intn(41)
		if rng.Intn(2) == 0 {
			window = rng.Intn(6) // the kernels' minimum windows lie here
		}
		o := core.AnalysisOptions{
			Window:           window,
			VarianceFraction: fracs[rng.Intn(len(fracs))],
			SkipLocal:        rng.Intn(2) == 1,
			VariogramFFT:     rng.Intn(2) == 1,
		}
		for _, k := range kernels {
			if rng.Intn(2) == 1 {
				o.Stats = append(o.Stats, k)
			}
		}
		q := url.Values{}
		q.Set("window", fmt.Sprint(o.Window))
		q.Set("frac", fmt.Sprint(o.VarianceFraction))
		q.Set("skiplocal", fmt.Sprint(o.SkipLocal))
		q.Set("vfft", fmt.Sprint(o.VariogramFFT))
		if len(o.Stats) > 0 {
			q.Set("stats", strings.Join(o.Stats, ","))
		}
		route := routes[rng.Intn(len(routes))]
		u := route + "?" + q.Encode()
		code, data := postBin(t, hs.URL+u, bodies[rng.Intn(len(bodies))])

		wantBad := o.Window == 0 || o.VarianceFraction == 0 || core.CheckAnalysis(o) != nil
		wantOK := http.StatusOK
		if strings.HasPrefix(route, "/v1/jobs/") {
			wantOK = http.StatusAccepted
		}
		switch {
		case wantBad && code != http.StatusBadRequest:
			t.Errorf("request %d %s: status %d (%s), want 400", i, u, code, data)
		case !wantBad && code != wantOK:
			t.Errorf("request %d %s: status %d (%s), want %d", i, u, code, data, wantOK)
		case code == http.StatusAccepted:
			var info JobInfo
			if err := json.Unmarshal(data, &info); err != nil {
				t.Fatalf("request %d %s: decoding %q: %v", i, u, data, err)
			}
			if end := waitJobTerminal(t, hs.URL, info.ID); end.State != JobDone {
				t.Errorf("request %d %s: admitted job ended %s: %s", i, u, end.State, end.Error)
			}
		}
	}
}

// TestUnreadOptionsShareCache: the window and the variance fraction key
// the cache only when the analysis reads them. Predict runs the global
// variogram alone, so three predicts that differ only in them are one
// run; so are two variogram-only analyses that differ only in the
// window. A default analysis still reads both, and a new window is a
// new run.
func TestUnreadOptionsShareCache(t *testing.T) {
	s, hs := testServer(t, Config{TrainFields: 4, TrainEdge2D: 32, TrainEdge3D: 12})
	body := gaussBody(t, 32, 4, 9)
	post := func(route string) {
		t.Helper()
		if code, data := postBin(t, hs.URL+route, body); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, code, data)
		}
	}
	for _, q := range []string{"window=8", "window=16", "frac=0.5"} {
		post("/v1/predict?eb=1e-3&" + q)
	}
	if runs := s.Stats().PredictRuns; runs != 1 {
		t.Fatalf("predicts differing only in unread options ran %d times, want 1", runs)
	}
	for _, w := range []string{"8", "16"} {
		post("/v1/analyze?stats=variogram&window=" + w)
	}
	if runs := s.Stats().AnalyzeRuns; runs != 1 {
		t.Fatalf("variogram-only analyses differing only in the window ran %d times, want 1", runs)
	}
	for _, w := range []string{"8", "16"} {
		post("/v1/analyze?window=" + w)
	}
	if runs := s.Stats().AnalyzeRuns; runs != 3 {
		t.Fatalf("default analyses at two windows: %d analyze runs in all, want 3", runs)
	}
}
