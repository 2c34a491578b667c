package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServiceAnalyzeCached gauges what the content cache buys:
// the cold first-request latency is reported as cold-ms, the steady
// cached latency both as ns/op and cached-ms, and their quotient as
// cold-over-cached-x — the service-level speedup of content
// addressing on a byte-identical resubmission.
func BenchmarkServiceAnalyzeCached(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	body := gaussBody(b, 256, 16, 1)

	do := func() int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze?vfft=true", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	start := time.Now()
	if code := do(); code != http.StatusOK {
		b.Fatalf("cold analyze: %d", code)
	}
	cold := time.Since(start)

	b.ResetTimer() // also clears reported metrics: report only after the loop
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("cached analyze: %d", code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cold.Microseconds())/1e3, "cold-ms")
	if b.N > 0 && b.Elapsed() > 0 {
		cached := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(cached.Microseconds())/1e3, "cached-ms")
		if cached > 0 {
			b.ReportMetric(float64(cold)/float64(cached), "cold-over-cached-x")
		}
	}
}

// BenchmarkServiceAnalyzeHit gauges the server-side cost of a cache
// hit, which is intake alone: the body read and hashed, its header
// validated, the cached result encoded. The subcases are vfft-cache's
// two hot 512² bodies and analyze-cold's 256² float64 size; B/op shows
// how many times the upload is held.
func BenchmarkServiceAnalyzeHit(b *testing.B) {
	for _, c := range []struct {
		name   string
		edge   int
		narrow bool
	}{
		{"512x512/f64", 512, false},
		{"512x512/f32", 512, true},
		{"256x256/f64", 256, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			h := s.Handler()
			body := intakeBody(b, c.edge, c.edge, 7, c.narrow)
			do := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze?vfft=true&stats=variogram", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("analyze: %d %s", rec.Code, rec.Body)
				}
			}
			do() // the miss that fills the cache
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				do()
			}
		})
	}
}

// BenchmarkPredictServe gauges the model-serving path: a server booted
// with a model directory answers stats-only predictions by evaluating
// the fitted log model — no field upload, no analysis, no training.
// Each iteration varies the statistic so every request misses the
// result cache and actually runs the model; ns/op is therefore the
// full serve cost (routing + model evaluation + interval + JSON),
// which must stay microsecond-scale. For contrast, the cost of the
// first prediction on a server WITHOUT a model directory — the lazy
// training the model artifact spares every fleet member — is reported
// as lazy-train-ms.
func BenchmarkPredictServe(b *testing.B) {
	dir := b.TempDir()
	writeTestModel(b, dir, "m2.json", 2)
	s := New(Config{ModelDir: dir})
	defer s.Close()
	h := s.Handler()

	do := func(url string) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, url, nil)
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("/v1/predict?stat=%d.5&eb=0.001&interval=1", 2+i%1000)
		if code := do(url); code != http.StatusOK {
			b.Fatalf("predict: %d", code)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.TrainRuns != 0 {
		b.Fatalf("model serving trained %d times, want 0", st.TrainRuns)
	}

	// The lazy-train contrast: one cold prediction with no model dir.
	s2 := New(Config{TrainEdge2D: 64, TrainFields: 6})
	defer s2.Close()
	h2 := s2.Handler()
	rec := httptest.NewRecorder()
	start := time.Now()
	h2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict?stat=8.5&eb=0.001", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("lazy predict: %d", rec.Code)
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/1e3, "lazy-train-ms")
}
