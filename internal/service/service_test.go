package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lossycorr/internal/gaussian"
)

// testServer spins up a Server behind a real httptest listener so the
// suite exercises the full HTTP path (routing, body limits, request
// contexts), not just the handlers.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// gaussBody serializes a synthetic Gaussian field in the legacy binary
// layout — realistic correlation structure so every statistic fits.
func gaussBody(t testing.TB, edge int, rang float64, seed uint64) []byte {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: edge, Cols: edge, Range: rang, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nonFiniteBody is a 64² Gaussian upload, on the float32 lane when
// narrow is set, with one value replaced by v.
func nonFiniteBody(t testing.TB, v float64, narrow bool) []byte {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g.Data[40*64+50] = v
	var buf bytes.Buffer
	if narrow {
		err = g.Narrow().WriteBinary(&buf)
	} else {
		err = g.WriteBinary(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBin(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func decodeEnvelope(t testing.TB, data []byte, result any) envelope {
	t.Helper()
	var env struct {
		Cached        bool            `json:"cached"`
		ElapsedMs     float64         `json:"elapsedMs"`
		PoolPeakBytes int64           `json:"poolPeakBytes"`
		Result        json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding envelope %q: %v", data, err)
	}
	if result != nil {
		if err := json.Unmarshal(env.Result, result); err != nil {
			t.Fatalf("decoding result %q: %v", env.Result, err)
		}
	}
	return envelope{Cached: env.Cached, ElapsedMs: env.ElapsedMs, PoolPeakBytes: env.PoolPeakBytes}
}

func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func waitJobTerminal(t testing.TB, base, id string) JobInfo {
	t.Helper()
	var info JobInfo
	waitFor(t, 30*time.Second, "job "+id+" to finish", func() bool {
		if code := getJSON(t, base+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		return info.State == JobDone || info.State == JobFailed || info.State == JobCancelled
	})
	return info
}

func TestHealthStatsDatasets(t *testing.T) {
	_, hs := testServer(t, Config{})
	var health map[string]string
	if code := getJSON(t, hs.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	var st StatsSnapshot
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var ds struct {
		Datasets []any `json:"datasets"`
	}
	if code := getJSON(t, hs.URL+"/v1/datasets", &ds); code != http.StatusOK || len(ds.Datasets) != 0 {
		t.Fatalf("datasets: %d %v", code, ds)
	}
}

// TestAnalyzeSyncCacheHit is the cache-correctness probe: a
// byte-identical resubmission must be served from the content cache —
// the pipeline-run counter proves the pipeline ran exactly once — and
// changing any option must miss.
func TestAnalyzeSyncCacheHit(t *testing.T) {
	s, hs := testServer(t, Config{})
	body := gaussBody(t, 64, 8, 1)

	var res analyzeResult
	code, data := postBin(t, hs.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("analyze: %d %s", code, data)
	}
	env := decodeEnvelope(t, data, &res)
	if env.Cached {
		t.Fatal("first submission reported cached")
	}
	if len(res.Shape) != 2 || res.Shape[0] != 64 || res.Shape[1] != 64 {
		t.Fatalf("shape = %v", res.Shape)
	}
	if res.Stats.GlobalRange() <= 0 || res.Stats.LocalRangeStd() < 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}

	var res2 analyzeResult
	code, data = postBin(t, hs.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, &res2); !env.Cached {
		t.Fatal("byte-identical resubmission missed the cache")
	}
	if !res2.Stats.Equal(res.Stats) {
		t.Fatalf("cached result differs: %+v vs %+v", res2, res)
	}
	if st := s.Stats(); st.AnalyzeRuns != 1 || st.CacheHits != 1 {
		t.Fatalf("want exactly 1 pipeline run and 1 hit, got runs=%d hits=%d", st.AnalyzeRuns, st.CacheHits)
	}

	// A different option canonicalizes to a different content address.
	code, data = postBin(t, hs.URL+"/v1/analyze?window=16", body)
	if code != http.StatusOK {
		t.Fatalf("analyze window=16: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, nil); env.Cached {
		t.Fatal("different options must not hit the cache")
	}
	if st := s.Stats(); st.AnalyzeRuns != 2 {
		t.Fatalf("want 2 pipeline runs after option change, got %d", st.AnalyzeRuns)
	}

	// Spelling the same option differently still hits: ?window=16 vs
	// explicit default-equal params share one canonical form.
	code, data = postBin(t, hs.URL+"/v1/analyze?window=16&vfft=0", body)
	if code != http.StatusOK {
		t.Fatalf("analyze respelled: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, nil); !env.Cached {
		t.Fatal("equivalent option spelling missed the cache")
	}
}

func TestJobSubmitPollResult(t *testing.T) {
	s, hs := testServer(t, Config{})
	body := gaussBody(t, 64, 8, 2)

	code, data := postBin(t, hs.URL+"/v1/jobs/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var info JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Kind != "analyze" || info.SubmittedAt.IsZero() {
		t.Fatalf("bad submit response: %+v", info)
	}

	final := waitJobTerminal(t, hs.URL, info.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.FinishedAt.IsZero() || final.StartedAt.IsZero() {
		t.Fatalf("missing timestamps: %+v", final)
	}

	var res analyzeResult
	resp, err := http.Get(hs.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, rdata)
	}
	decodeEnvelope(t, rdata, &res)
	if res.Stats.GlobalRange() <= 0 {
		t.Fatalf("implausible job result: %+v", res)
	}

	// The async result and a sync run of the same content share one
	// cache entry — the job already computed it.
	code, data = postBin(t, hs.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("sync after job: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, nil); !env.Cached {
		t.Fatal("sync request after identical job missed the cache")
	}
	if st := s.Stats(); st.AnalyzeRuns != 1 || st.JobsCompleted != 1 {
		t.Fatalf("runs=%d completed=%d", st.AnalyzeRuns, st.JobsCompleted)
	}

	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if code := getJSON(t, hs.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("job list: %d %+v", code, list)
	}
}

func legacyHeader(rows, cols uint32) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:], rows)
	binary.LittleEndian.PutUint32(b[4:], cols)
	return b
}

func TestRejectsMalformedRequests(t *testing.T) {
	_, hs := testServer(t, Config{})
	valid := gaussBody(t, 16, 4, 3)
	withNaN := nonFiniteBody(t, math.NaN(), false)

	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"garbage body", "/v1/analyze", []byte("not a field at all"), http.StatusBadRequest},
		{"empty body", "/v1/analyze", nil, http.StatusBadRequest},
		{"zero extent header", "/v1/analyze", legacyHeader(0, 16), http.StatusBadRequest},
		{"huge dims header", "/v1/analyze", legacyHeader(0xffffffff, 0xffffffff), http.StatusBadRequest},
		{"truncated payload", "/v1/analyze", legacyHeader(16, 16), http.StatusBadRequest},
		{"tagged rank bomb", "/v1/analyze", append([]byte("LCF1"), legacyHeader(0xffffffff, 0)...), http.StatusBadRequest},
		{"bad window", "/v1/analyze?window=banana", valid, http.StatusBadRequest},
		{"window too small", "/v1/analyze?window=1", valid, http.StatusBadRequest},
		{"negative maxlag", "/v1/analyze?maxlag=-1", valid, http.StatusBadRequest},
		{"maxlag lattice bomb", "/v1/analyze?maxlag=100000", valid, http.StatusBadRequest},
		{"maxlag fft padding bomb", "/v1/analyze?vfft=true&maxlag=100000", valid, http.StatusBadRequest},
		{"maxlag bomb via measure", "/v1/measure?maxlag=100000", valid, http.StatusBadRequest},
		{"maxlag bomb via async job", "/v1/jobs/analyze?maxlag=100000", valid, http.StatusBadRequest},
		{"NaN frac", "/v1/analyze?frac=NaN", valid, http.StatusBadRequest},
		{"+Inf frac", "/v1/analyze?frac=Inf", valid, http.StatusBadRequest},
		{"-Inf frac", "/v1/analyze?frac=-Inf", valid, http.StatusBadRequest},
		{"zero frac", "/v1/analyze?frac=0", valid, http.StatusBadRequest},
		{"frac above 1", "/v1/analyze?frac=2", valid, http.StatusBadRequest},
		{"NaN frac via async job", "/v1/jobs/analyze?frac=NaN", valid, http.StatusBadRequest},
		{"bad bool", "/v1/analyze?vfft=maybe", valid, http.StatusBadRequest},
		{"bad error bound", "/v1/measure?eb=-3", valid, http.StatusBadRequest},
		{"unknown codec", "/v1/measure?codec=nope", valid, http.StatusBadRequest},
		{"NaN value", "/v1/analyze", withNaN, http.StatusBadRequest},
		{"NaN value, full-SVD path", "/v1/analyze?stats=svd&gram=false", withNaN, http.StatusBadRequest},
		{"+Inf value, float32", "/v1/analyze?stats=svd", nonFiniteBody(t, math.Inf(1), true), http.StatusBadRequest},
		{"unknown kind", "/v1/jobs/transmogrify", valid, http.StatusNotFound},
		{"dataset unconfigured", "/v1/analyze?dataset=x", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		code, data := postBin(t, hs.URL+tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, data, tc.want)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error payload %q not JSON", tc.name, data)
		}
	}

	for _, url := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result"} {
		if code := getJSON(t, hs.URL+url, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", url, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/deadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: got %d, want 404", resp.StatusCode)
	}
}

func TestBodyCapReturns413(t *testing.T) {
	_, hs := testServer(t, Config{MaxBodyBytes: 1024})
	code, data := postBin(t, hs.URL+"/v1/analyze", gaussBody(t, 64, 8, 4))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: got %d (%s), want 413", code, data)
	}
	// Under the byte cap but over the derived element budget: a legacy
	// header promising more elements than MaxBodyBytes/8 is rejected at
	// header-validation time, before any allocation.
	code, data = postBin(t, hs.URL+"/v1/analyze", legacyHeader(16, 16))
	if code != http.StatusBadRequest {
		t.Fatalf("element budget: got %d (%s), want 400", code, data)
	}
}

// TestAdmissionAndCancelRunning drives the bounded-admission and
// cancellation lifecycle end to end: a long job occupies the single
// executor, the one queue slot fills, the next submission is rejected
// with 429, and DELETEing the running job unwinds it cooperatively so
// the queued job gets the executor.
func TestAdmissionAndCancelRunning(t *testing.T) {
	s, hs := testServer(t, Config{Executors: 1, MaxQueue: 1})

	// Big exact-scan analyze: many seconds of work if never cancelled.
	blocker := gaussBody(t, 512, 32, 7)
	code, data := postBin(t, hs.URL+"/v1/jobs/analyze", blocker)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: %d %s", code, data)
	}
	var blockerInfo JobInfo
	if err := json.Unmarshal(data, &blockerInfo); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "blocker to start running", func() bool {
		var info JobInfo
		getJSON(t, hs.URL+"/v1/jobs/"+blockerInfo.ID, &info)
		return info.State == JobRunning
	})

	filler := gaussBody(t, 16, 4, 8)
	code, data = postBin(t, hs.URL+"/v1/jobs/analyze", filler)
	if code != http.StatusAccepted {
		t.Fatalf("filler submit: %d %s", code, data)
	}
	var fillerInfo JobInfo
	if err := json.Unmarshal(data, &fillerInfo); err != nil {
		t.Fatal(err)
	}

	rejected := gaussBody(t, 16, 4, 9)
	code, data = postBin(t, hs.URL+"/v1/jobs/analyze", rejected)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-admission submit: got %d (%s), want 429", code, data)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+blockerInfo.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	cancelAt := time.Now()
	final := waitJobTerminal(t, hs.URL, blockerInfo.ID)
	if final.State != JobCancelled {
		t.Fatalf("blocker ended %s, want cancelled", final.State)
	}
	if d := time.Since(cancelAt); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}

	if final := waitJobTerminal(t, hs.URL, fillerInfo.ID); final.State != JobDone {
		t.Fatalf("filler ended %s: %s", final.State, final.Error)
	}
	st := s.Stats()
	if st.JobsRejected != 1 || st.JobsCancelled != 1 || st.JobsCompleted != 1 {
		t.Fatalf("rejected=%d cancelled=%d completed=%d", st.JobsRejected, st.JobsCancelled, st.JobsCompleted)
	}
}

func TestMeasureSyncWithCodecFilter(t *testing.T) {
	s, hs := testServer(t, Config{})
	body := gaussBody(t, 32, 6, 5)

	var res measureResult
	code, data := postBin(t, hs.URL+"/v1/measure?skiplocal=true&eb=1e-3,1e-2&codec=zfp-like", body)
	if code != http.StatusOK {
		t.Fatalf("measure: %d %s", code, data)
	}
	decodeEnvelope(t, data, &res)
	if len(res.Results) != 2 {
		t.Fatalf("want 2 results (1 codec x 2 bounds), got %d", len(res.Results))
	}
	for _, r := range res.Results {
		if r.Compressor != "zfp-like" || !r.BoundOK || r.Ratio <= 0 {
			t.Fatalf("bad result: %+v", r)
		}
	}

	var full measureResult
	code, data = postBin(t, hs.URL+"/v1/measure?skiplocal=true&eb=1e-3", body)
	if code != http.StatusOK {
		t.Fatalf("measure all codecs: %d %s", code, data)
	}
	decodeEnvelope(t, data, &full)
	if len(full.Results) != 3 {
		t.Fatalf("want 3 results (all 2D codecs x 1 bound), got %d", len(full.Results))
	}
	if st := s.Stats(); st.MeasureRuns != 2 {
		t.Fatalf("measure runs = %d", st.MeasureRuns)
	}
}

func TestPredictSyncTrainsOnce(t *testing.T) {
	s, hs := testServer(t, Config{TrainEdge2D: 64, TrainFields: 6})

	var res predictResult
	code, data := postBin(t, hs.URL+"/v1/predict?eb=1e-3", gaussBody(t, 64, 8, 11))
	if code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, data)
	}
	decodeEnvelope(t, data, &res)
	if !res.Selected || res.Compressor == "" || res.PredictedRatio <= 0 {
		t.Fatalf("bad selection: %+v", res)
	}

	// A different field at the same bound reuses the trained model.
	code, data = postBin(t, hs.URL+"/v1/predict?eb=1e-3", gaussBody(t, 64, 16, 12))
	if code != http.StatusOK {
		t.Fatalf("second predict: %d %s", code, data)
	}
	if st := s.Stats(); st.TrainRuns != 1 {
		t.Fatalf("model trained %d times, want 1", st.TrainRuns)
	}

	// Scoring a named codec instead of selecting.
	code, data = postBin(t, hs.URL+"/v1/predict?eb=1e-3&codec=sz-like", gaussBody(t, 64, 8, 11))
	if code != http.StatusOK {
		t.Fatalf("predict codec: %d %s", code, data)
	}
	decodeEnvelope(t, data, &res)
	if res.Selected || res.Compressor != "sz-like" {
		t.Fatalf("bad scored prediction: %+v", res)
	}
}

// TestDatasetReferenceSharesCache proves content addressing: the same
// bytes reached by upload and by server-side dataset reference land on
// one cache entry.
func TestDatasetReferenceSharesCache(t *testing.T) {
	dir := t.TempDir()
	body := gaussBody(t, 64, 8, 13)
	if err := os.WriteFile(filepath.Join(dir, "f.bin"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := testServer(t, Config{DataDir: dir})

	var ds struct {
		Datasets []struct {
			Name  string `json:"name"`
			Bytes int64  `json:"bytes"`
		} `json:"datasets"`
	}
	if code := getJSON(t, hs.URL+"/v1/datasets", &ds); code != http.StatusOK {
		t.Fatalf("datasets: %d", code)
	}
	if len(ds.Datasets) != 1 || ds.Datasets[0].Name != "f.bin" || ds.Datasets[0].Bytes != int64(len(body)) {
		t.Fatalf("dataset listing: %+v", ds)
	}

	code, data := postBin(t, hs.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("upload analyze: %d %s", code, data)
	}
	code, data = postBin(t, hs.URL+"/v1/analyze?dataset=f.bin", nil)
	if code != http.StatusOK {
		t.Fatalf("dataset analyze: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, nil); !env.Cached {
		t.Fatal("dataset reference with identical content missed the cache")
	}
	if st := s.Stats(); st.AnalyzeRuns != 1 {
		t.Fatalf("pipeline ran %d times, want 1", st.AnalyzeRuns)
	}

	if code, _ := postBin(t, hs.URL+"/v1/analyze?dataset=nope.bin", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: got %d, want 404", code)
	}
	if code, _ := postBin(t, hs.URL+fmt.Sprintf("/v1/analyze?dataset=%s", "..%2Ff.bin"), nil); code != http.StatusBadRequest &&
		code != http.StatusNotFound {
		t.Fatalf("path-escaping dataset name: got %d, want 4xx", code)
	}
}

func TestConfigFromEnv(t *testing.T) {
	env := map[string]string{
		"CORRCOMPD_ADDR":           "127.0.0.1:9999",
		"CORRCOMPD_MAX_BODY_BYTES": "4096",
		"CORRCOMPD_MAX_QUEUE":      "3",
		"CORRCOMPD_EXECUTORS":      "1",
		"CORRCOMPD_STATS_PERIOD":   "30s",
		"CORRCOMPD_WORKERS":        "2",
	}
	cfg, err := FromEnv(func(k string) string { return env[k] })
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	if cfg.Addr != "127.0.0.1:9999" || cfg.MaxBodyBytes != 4096 || cfg.MaxQueue != 3 ||
		cfg.Executors != 1 || cfg.StatsPeriod != 30*time.Second || cfg.Workers != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.CacheEntries != 128 || cfg.TrainEdge2D != 128 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}

	if _, err := FromEnv(func(k string) string {
		if k == "CORRCOMPD_EXECUTORS" {
			return "many"
		}
		return ""
	}); err == nil {
		t.Fatal("unparsable env value must error, not silently default")
	}
}

// TestMaxLagBoundedByFieldShape pins the admission-side cost cap: the
// lag cutoff is rejected above half the field's smallest extent — the
// same ceiling the engine substitutes for maxlag=0 — so a tiny upload
// cannot demand an enormous offset lattice or FFT padding, while a
// request at the cap still runs.
func TestMaxLagBoundedByFieldShape(t *testing.T) {
	_, hs := testServer(t, Config{})
	body := gaussBody(t, 16, 4, 21) // 16x16: cap = 8

	code, data := postBin(t, hs.URL+"/v1/analyze?maxlag=8", body)
	if code != http.StatusOK {
		t.Fatalf("maxlag at cap: got %d (%s), want 200", code, data)
	}
	code, data = postBin(t, hs.URL+"/v1/analyze?maxlag=9", body)
	if code != http.StatusBadRequest {
		t.Fatalf("maxlag over cap: got %d (%s), want 400", code, data)
	}
}

// TestFinishedJobReleasesSpec pins the retention fix: once a job
// reaches a terminal state its spec closure — which captures the fully
// parsed field — must be dropped, or RetainedJobs finished jobs would
// pin up to RetainedJobs×MaxBodyBytes of dead field data.
func TestFinishedJobReleasesSpec(t *testing.T) {
	s, hs := testServer(t, Config{})
	code, data := postBin(t, hs.URL+"/v1/jobs/analyze", gaussBody(t, 32, 4, 22))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var info JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if got := waitJobTerminal(t, hs.URL, info.ID); got.State != JobDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	j := s.lookupJob(info.ID)
	if j == nil {
		t.Fatal("finished job missing from table")
	}
	j.mu.Lock()
	run, kind := j.spec.run, j.spec.kind
	j.mu.Unlock()
	if run != nil {
		t.Fatal("finished job still holds its spec closure (pins the parsed field)")
	}
	if kind != "analyze" {
		t.Fatalf("spec kind lost on release: %q", kind)
	}
}

// TestWriteJSONMarshalFailure pins the buffer-first contract: a value
// that cannot serialize yields a 500 with a JSON error body, never a
// success header followed by a truncated body.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("got %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("error payload %q not JSON", rec.Body.String())
	}
}

// TestQueueFullRollbackKeepsConcurrentJobs hammers submission against
// a full queue with the executor wedged: every accepted job must stay
// visible in the job table and listing, and every rejected submission
// must leave no dangling ID behind — the regression that used to
// truncate a concurrent submitter's entry off s.order.
func TestQueueFullRollbackKeepsConcurrentJobs(t *testing.T) {
	s, hs := testServer(t, Config{Executors: 1, MaxQueue: 2})
	body := gaussBody(t, 16, 4, 23)

	// Wedge the executor: CORRCOMPD jobs run specs, so occupy it with a
	// job whose context we never cancel until the end.
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	wedge, err := s.submitJob(runSpec{kind: "analyze", key: "wedge", run: func(ctx context.Context) (any, error) {
		<-block
		return analyzeResult{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "wedge job to start", func() bool {
		return wedge.snapshot().State == JobRunning
	})

	var wg sync.WaitGroup
	var accepted, rejected atomic.Int64
	acceptedIDs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				code, data := postBin(t, hs.URL+fmt.Sprintf("/v1/jobs/analyze?window=%d", 4+2*(g*8+i)), body)
				switch code {
				case http.StatusAccepted:
					var info JobInfo
					if err := json.Unmarshal(data, &info); err == nil {
						acceptedIDs <- info.ID
					}
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("submit: unexpected %d (%s)", code, data)
				}
			}
		}(g)
	}
	wg.Wait()
	close(acceptedIDs)
	if rejected.Load() == 0 {
		t.Fatal("queue never filled; the rollback path was not exercised")
	}

	// Every accepted job must be addressable and listed — a lost one is
	// the leaked-entry regression.
	for id := range acceptedIDs {
		if s.lookupJob(id) == nil {
			t.Fatalf("accepted job %s vanished from the table", id)
		}
	}
	s.jobMu.Lock()
	ordered := len(s.order)
	mapped := len(s.jobs)
	for _, id := range s.order {
		if s.jobs[id] == nil {
			t.Errorf("dangling ID %s in order with no job", id)
		}
	}
	s.jobMu.Unlock()
	if ordered != mapped {
		t.Fatalf("order (%d) and job table (%d) disagree: leaked or dangling entries", ordered, mapped)
	}

	release()
	waitFor(t, 30*time.Second, "backlog to drain", func() bool {
		st := s.Stats()
		return st.QueueDepth == 0 && st.InFlight == 0 &&
			st.JobsCompleted+st.JobsFailed+st.JobsCancelled == st.JobsSubmitted
	})
}
