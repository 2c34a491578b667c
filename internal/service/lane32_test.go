package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

func mustJSON(t testing.TB, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
}

// gaussBody32 serializes the same synthetic Gaussian field as
// gaussBody, narrowed to the float32 wire format.
func gaussBody32(t testing.TB, edge int, rang float64, seed uint64) []byte {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: edge, Cols: edge, Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Narrow().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeFloat32Upload pins the lane dispatch end to end: a
// float32 upload is analyzed on its own lane, and with the direct scan
// the statistics are bitwise the float64 pipeline's on the widened
// bytes — so the two lanes are distinct cache entries with identical
// content.
func TestAnalyzeFloat32Upload(t *testing.T) {
	s, hs := testServer(t, Config{})
	narrow := gaussBody32(t, 48, 8, 3)

	code, data := postBin(t, hs.URL+"/v1/analyze", narrow)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var got analyzeResult
	decodeEnvelope(t, data, &got)
	if len(got.Shape) != 2 || got.Shape[0] != 48 {
		t.Fatalf("shape %v", got.Shape)
	}

	// The widened field through the float64 lane: bitwise-equal stats.
	wide, err := field.ReadBinaryLimit(bytes.NewReader(narrow), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wide.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	code, data = postBin(t, hs.URL+"/v1/analyze", buf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("widened status %d: %s", code, data)
	}
	var ex analyzeResult
	decodeEnvelope(t, data, &ex)
	if !got.Stats.Equal(ex.Stats) {
		t.Fatalf("lane stats diverge:\n got %+v\nwant %+v", got.Stats, ex.Stats)
	}
	if s.Stats().AnalyzeRuns != 2 {
		t.Fatalf("expected 2 distinct cache entries (one per lane), stats %+v", s.Stats())
	}
}

// TestMeasureFloat32Upload pins the measurement lane: results report
// float32 original bytes and every codec holds its bound.
func TestMeasureFloat32Upload(t *testing.T) {
	_, hs := testServer(t, Config{})
	code, data := postBin(t, hs.URL+"/v1/measure?eb=1e-3&skiplocal=true", gaussBody32(t, 40, 8, 5))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var res measureResult
	decodeEnvelope(t, data, &res)
	if len(res.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res.Results {
		if !r.BoundOK {
			t.Fatalf("%s violated bound: %+v", r.Compressor, r)
		}
		if r.OriginalSize != 40*40*4 {
			t.Fatalf("%s original size %d, want float32 bytes %d", r.Compressor, r.OriginalSize, 40*40*4)
		}
	}
}

// TestMemBudgetAdmission pins the predicted-peak admission contract:
// with a budget that fits the float32 working set but not the float64
// one, the wide upload is rejected with 429 and the prediction in the
// body, the narrow upload is admitted, and the reservation drains back
// to zero when the job finishes.
func TestMemBudgetAdmission(t *testing.T) {
	const edge = 32
	// Non-FFT prediction degenerates to field bytes: 8 KiB f64, 4 KiB f32.
	s, hs := testServer(t, Config{MemBudget: 5 << 10, Executors: 1})

	code, data := postBin(t, hs.URL+"/v1/jobs/analyze?skiplocal=true", gaussBody(t, edge, 6, 7))
	if code != http.StatusTooManyRequests {
		t.Fatalf("f64 job: status %d, want 429: %s", code, data)
	}
	var rej struct {
		Error              string `json:"error"`
		PredictedPeakBytes int64  `json:"predictedPeakBytes"`
		MemBudgetBytes     int64  `json:"memBudgetBytes"`
	}
	mustJSON(t, data, &rej)
	if rej.PredictedPeakBytes != edge*edge*8 || rej.MemBudgetBytes != 5<<10 || rej.Error == "" {
		t.Fatalf("rejection body %+v", rej)
	}
	if s.Stats().JobsRejected != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}

	code, data = postBin(t, hs.URL+"/v1/jobs/analyze?skiplocal=true", gaussBody32(t, edge, 6, 7))
	if code != http.StatusAccepted {
		t.Fatalf("f32 job: status %d, want 202: %s", code, data)
	}
	var info JobInfo
	mustJSON(t, data, &info)
	if info.PredictedPeakBytes != edge*edge*4 {
		t.Fatalf("admitted job charged %d bytes, want %d", info.PredictedPeakBytes, edge*edge*4)
	}
	done := waitJobTerminal(t, hs.URL, info.ID)
	if done.State != JobDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	waitFor(t, 5*time.Second, "reservation drain", func() bool { return s.Stats().MemReservedBytes == 0 })

	// With the reservation back, the same float32 job is admitted again.
	if code, data = postBin(t, hs.URL+"/v1/jobs/analyze?skiplocal=true", gaussBody32(t, edge, 6, 7)); code != http.StatusAccepted {
		t.Fatalf("post-drain resubmit: status %d: %s", code, data)
	}
}

// TestMemBudgetFFTPrediction pins the transform plane formula: with
// vfft the prediction is variogram.FFTPeakBytes — far above the raw
// field bytes — so a budget sized to the field alone rejects the FFT
// job while still admitting the direct-scan one. Both lanes run the
// one float64 engine, so a float32 body of the same shape is predicted
// the same bytes.
func TestMemBudgetFFTPrediction(t *testing.T) {
	const edge = 32
	_, hs := testServer(t, Config{MemBudget: edge * edge * 8, Executors: 1})
	body := gaussBody(t, edge, 6, 9)

	if code, data := postBin(t, hs.URL+"/v1/jobs/analyze?skiplocal=true", body); code != http.StatusAccepted {
		t.Fatalf("direct-scan job: status %d: %s", code, data)
	}
	predicted := func(body []byte) int64 {
		t.Helper()
		code, data := postBin(t, hs.URL+"/v1/jobs/analyze?skiplocal=true&vfft=true&maxlag=16", body)
		if code != http.StatusTooManyRequests {
			t.Fatalf("FFT job: status %d, want 429: %s", code, data)
		}
		var rej struct {
			PredictedPeakBytes int64 `json:"predictedPeakBytes"`
		}
		mustJSON(t, data, &rej)
		return rej.PredictedPeakBytes
	}
	p64 := predicted(body)
	// Each padded extent is at least edge+16, so the formula predicts at
	// least one 48² float64 plane plus its 48×25-bin complex128
	// half-spectrum.
	if min := int64(48*48*8 + 48*25*16); p64 < min {
		t.Fatalf("FFT prediction %d < plane-formula floor %d", p64, min)
	}
	if p32 := predicted(gaussBody32(t, edge, 6, 9)); p32 != p64 {
		t.Fatalf("float32 FFT prediction %d, want the float64 body's %d", p32, p64)
	}
}

// TestMemBudgetFFTPredictionFollowsSelection pins that only a run that
// computes the global variogram is charged the spectral working set. A
// vfft analyze job whose selection leaves the variogram out is charged
// the field bytes and admitted under a budget that rejects the full
// selection. Predict overrides the client's selection and always runs
// the variogram, so its vfft job is charged the spectral peak whatever
// ?stats= says.
func TestMemBudgetFFTPredictionFollowsSelection(t *testing.T) {
	const edge = 32
	_, hs := testServer(t, Config{MemBudget: edge * edge * 8, Executors: 1})
	body := gaussBody(t, edge, 6, 9)

	code, data := postBin(t, hs.URL+"/v1/jobs/analyze?vfft=true&stats=svd", body)
	if code != http.StatusAccepted {
		t.Fatalf("vfft job without the variogram: status %d, want 202: %s", code, data)
	}
	var info JobInfo
	mustJSON(t, data, &info)
	if info.PredictedPeakBytes != edge*edge*8 {
		t.Fatalf("vfft job without the variogram charged %d bytes, want the field's %d", info.PredictedPeakBytes, edge*edge*8)
	}
	if done := waitJobTerminal(t, hs.URL, info.ID); done.State != JobDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	rejected := func(path string) int64 {
		t.Helper()
		code, data := postBin(t, hs.URL+path, body)
		if code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429: %s", path, code, data)
		}
		var rej struct {
			PredictedPeakBytes int64 `json:"predictedPeakBytes"`
		}
		mustJSON(t, data, &rej)
		return rej.PredictedPeakBytes
	}
	full := rejected("/v1/jobs/analyze?vfft=true&stats=svd,variogram")
	if full <= edge*edge*8 {
		t.Fatalf("spectral prediction %d does not exceed the field bytes", full)
	}
	if p := rejected("/v1/jobs/predict?vfft=true&stats=svd"); p != full {
		t.Fatalf("vfft predict job charged %d bytes, want the spectral peak %d", p, full)
	}
}

// TestMemBudgetEnv pins the CORRCOMPD_MEM_BUDGET wiring.
func TestMemBudgetEnv(t *testing.T) {
	env := map[string]string{"CORRCOMPD_MEM_BUDGET": "1073741824"}
	c, err := FromEnv(func(k string) string { return env[k] })
	if err != nil {
		t.Fatal(err)
	}
	if c.MemBudget != 1<<30 {
		t.Fatalf("MemBudget %d", c.MemBudget)
	}
	env["CORRCOMPD_MEM_BUDGET"] = "lots"
	if _, err := FromEnv(func(k string) string { return env[k] }); err == nil {
		t.Fatal("unparsable budget accepted")
	}
}
