package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// volumeBody returns a 3D field and its serialized bytes — big enough
// to exceed the small stream budgets these tests configure.
func volumeBody(t testing.TB, shape []int, seed uint64) (*field.Field, []byte) {
	t.Helper()
	rng := xrand.New(seed)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	var buf writerBuffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return f, buf.b
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func spoolCount(t testing.TB) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "corrcompd-spool-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestStreamingAnalyzeUpload: an upload larger than StreamBudget spools
// to disk while being hashed, analyzes out-of-core with results
// bit-identical to the in-RAM pipeline, cleans up its spool, and a
// byte-identical resubmission hits the content cache.
func TestStreamingAnalyzeUpload(t *testing.T) {
	s, hs := testServer(t, Config{StreamBudget: 128 << 10})
	f, body := volumeBody(t, []int{32, 48, 48}, 11)
	if int64(len(body)) <= s.Config().StreamBudget {
		t.Fatalf("test body %d B does not exceed the %d B stream budget", len(body), s.Config().StreamBudget)
	}
	want, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	spoolsBefore := spoolCount(t)

	var res analyzeResult
	code, data := postBin(t, hs.URL+"/v1/analyze?window=16", body)
	if code != http.StatusOK {
		t.Fatalf("streamed analyze: %d %s", code, data)
	}
	env := decodeEnvelope(t, data, &res)
	if env.Cached {
		t.Fatal("first streamed submission reported cached")
	}
	if !res.Stats.Equal(want) {
		t.Fatalf("streamed stats %+v != in-RAM %+v", res.Stats, want)
	}
	if env.PoolPeakBytes <= 0 || env.PoolPeakBytes > s.Config().StreamBudget {
		t.Fatalf("pool peak %d outside (0, budget %d]", env.PoolPeakBytes, s.Config().StreamBudget)
	}
	if n := spoolCount(t); n != spoolsBefore {
		t.Fatalf("spool files leaked: %d before, %d after", spoolsBefore, n)
	}

	var res2 analyzeResult
	code, data = postBin(t, hs.URL+"/v1/analyze?window=16", body)
	if code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code, data)
	}
	if env := decodeEnvelope(t, data, &res2); !env.Cached {
		t.Fatal("byte-identical streamed resubmission missed the cache")
	}
	if !res2.Stats.Equal(res.Stats) {
		t.Fatalf("cached streamed result differs: %+v vs %+v", res2.Stats, res.Stats)
	}
	if n := spoolCount(t); n != spoolsBefore {
		t.Fatalf("spool files leaked after cache hit: %d before, %d after", spoolsBefore, n)
	}
}

// TestStreamingDatasetOverBodyCap: out-of-core analysis admits dataset
// references past MaxBodyBytes — the point of streaming — while in-RAM
// kinds keep the cap.
func TestStreamingDatasetOverBodyCap(t *testing.T) {
	dir := t.TempDir()
	f, body := volumeBody(t, []int{32, 48, 48}, 13)
	if err := os.WriteFile(filepath.Join(dir, "vol.bin"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := testServer(t, Config{
		DataDir:      dir,
		MaxBodyBytes: int64(len(body)) / 2,
		StreamBudget: 128 << 10,
	})
	want, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}

	var res analyzeResult
	code, data := postBin(t, hs.URL+"/v1/analyze?window=16&dataset=vol.bin", nil)
	if code != http.StatusOK {
		t.Fatalf("streamed dataset analyze: %d %s", code, data)
	}
	env := decodeEnvelope(t, data, &res)
	if !res.Stats.Equal(want) {
		t.Fatalf("streamed dataset stats %+v != in-RAM %+v", res.Stats, want)
	}
	if env.PoolPeakBytes > s.Config().StreamBudget {
		t.Fatalf("pool peak %d over the %d B budget", env.PoolPeakBytes, s.Config().StreamBudget)
	}

	// measure has no streaming lane: the body cap still applies.
	code, data = postBin(t, hs.URL+"/v1/measure?dataset=vol.bin", nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap measure dataset: want 413, got %d %s", code, data)
	}
}

// TestStreamingAnalyzeJob: the async path streams too, releasing the
// spool when the job finishes.
func TestStreamingAnalyzeJob(t *testing.T) {
	_, hs := testServer(t, Config{StreamBudget: 128 << 10})
	f, body := volumeBody(t, []int{32, 48, 48}, 17)
	want, err := core.AnalyzeFieldCtx(context.Background(), f, core.AnalysisOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	spoolsBefore := spoolCount(t)

	code, data := postBin(t, hs.URL+"/v1/jobs/analyze?window=16", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit streamed job: %d %s", code, data)
	}
	var info JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("decoding submit response %q: %v", data, err)
	}
	done := waitJobTerminal(t, hs.URL, info.ID)
	if done.State != JobDone {
		t.Fatalf("streamed job ended %s: %s", done.State, done.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d %s", resp.StatusCode, body2)
	}
	var res analyzeResult
	decodeEnvelope(t, body2, &res)
	if !res.Stats.Equal(want) {
		t.Fatalf("streamed job stats %+v != in-RAM %+v", res.Stats, want)
	}
	if n := spoolCount(t); n != spoolsBefore {
		t.Fatalf("spool files leaked: %d before, %d after", spoolsBefore, n)
	}
}
