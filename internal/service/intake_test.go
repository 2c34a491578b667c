package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// intakeBody serializes a Gaussian field of the given shape on the
// float64 lane, or narrowed to the float32 lane.
func intakeBody(t testing.TB, rows, cols int, seed uint64, narrow bool) []byte {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: rows, Cols: cols, Range: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
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

// rawResult is the JSON of a sync response's result, byte for byte.
func rawResult(t testing.TB, data []byte) []byte {
	t.Helper()
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	mustJSON(t, data, &env)
	return env.Result
}

// libraryResult computes what the service must answer for kind on the
// payload, straight from the library on the parsed field. JSON encodes
// every float64 exactly, so equal encodings are equal bits.
func libraryResult[T field.Elem](t *testing.T, s *Server, kind string, f *field.Of[T]) any {
	t.Helper()
	ctx := context.Background()
	aOpts := core.AnalysisOptions{Window: 8}
	aOpts.VariogramOpts.MaxLag = 4
	switch kind {
	case "analyze":
		stats, err := core.AnalyzeFieldCtx(ctx, f, aOpts)
		if err != nil {
			t.Fatal(err)
		}
		return analyzeResult{Shape: f.Shape, Stats: stats}
	case "measure":
		c, err := core.DefaultRegistry().GetFor("sz-like", f.NDim())
		if err != nil {
			t.Fatal(err)
		}
		reg := compress.NewRegistry()
		if err := reg.RegisterField(c); err != nil {
			t.Fatal(err)
		}
		aOpts.SkipLocal = true
		ms, err := core.MeasureFieldSetCtx(ctx, "request", []*field.Of[T]{f}, nil, reg,
			core.MeasureOptions{Analysis: aOpts, ErrorBounds: []float64{1e-3}})
		if err != nil {
			t.Fatal(err)
		}
		return measureResult{Shape: f.Shape, Stats: ms[0].Stats, Results: ms[0].Results}
	default: // predict
		pred, modelKey, err := s.predictor(ctx, f.NDim(), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		aOpts.SkipLocal = true
		stats, err := core.AnalyzeFieldCtx(ctx, f, aOpts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := predictOutcome(pred, modelKey, 1e-3, "", false, stats)
		if err != nil {
			t.Fatal(err)
		}
		res.Shape = f.Shape
		return res
	}
}

// TestIntakeMatchesLibrary pins the one field intake: float64 and
// float32 payloads held in memory (a body under spoolMemLimit),
// spooled to disk (a body over it) and read from the data directory
// all answer analyze, measure and predict with exactly the library's
// results on the parsed field.
func TestIntakeMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	s, hs := testServer(t, Config{DataDir: dir, TrainEdge2D: 32, TrainFields: 4})
	queries := map[string]string{
		"analyze": "window=8&maxlag=4",
		"measure": "window=8&maxlag=4&skiplocal=true&eb=1e-3&codec=sz-like",
		"predict": "window=8&maxlag=4&eb=1e-3",
	}
	seed := uint64(40)
	for _, narrow := range []bool{false, true} {
		for _, src := range []struct {
			name       string
			rows, cols int
			dataset    bool
		}{
			{"memory body", 40, 40, false},
			{"spooled body", 16, 16400, false},
			{"dataset", 16, 16400, true},
		} {
			seed++ // a fresh payload per case, so no case is a cache hit
			body := intakeBody(t, src.rows, src.cols, seed, narrow)
			spooled := len(body) > spoolMemLimit
			if wantSpool := src.name != "memory body"; spooled != wantSpool {
				t.Fatalf("%s: %d-byte body spooled=%v", src.name, len(body), spooled)
			}
			wide, thin, err := field.ReadAnyLimit(bytes.NewReader(body), 0)
			if err != nil {
				t.Fatal(err)
			}
			post := body
			base := hs.URL + "/v1/%s?%s"
			if src.dataset {
				name := fmt.Sprintf("f%d.bin", seed)
				if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
					t.Fatal(err)
				}
				post, base = nil, hs.URL+"/v1/%s?%s&dataset="+name
			}
			for _, kind := range []string{"analyze", "measure", "predict"} {
				code, data := postBin(t, fmt.Sprintf(base, kind, queries[kind]), post)
				if code != http.StatusOK {
					t.Fatalf("%s %s (f32=%v): %d %s", src.name, kind, narrow, code, data)
				}
				var want any
				if narrow {
					want = libraryResult(t, s, kind, thin)
				} else {
					want = libraryResult(t, s, kind, wide)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if got := rawResult(t, data); !bytes.Equal(got, wantJSON) {
					t.Fatalf("%s %s (f32=%v):\n got %s\nwant %s", src.name, kind, narrow, got, wantJSON)
				}
			}
		}
	}
}

// TestIntakeSpoolCleanup: a spooled body leaves no temp file behind on
// any path that never runs it, or runs something else — rejected after
// spooling, answered from the cache, cancelled while queued, or turned
// away by a full queue.
func TestIntakeSpoolCleanup(t *testing.T) {
	s, hs := testServer(t, Config{Executors: 1, MaxQueue: 1})
	big := func(seed uint64) []byte { return intakeBody(t, 16, 16400, seed, false) }
	body := big(60)
	before := spoolCount(t)
	checkSpools := func(what string, want int) {
		t.Helper()
		if n := spoolCount(t); n != want {
			t.Fatalf("%s: %d spool files, want %d", what, n, want)
		}
	}

	for _, url := range []string{"/v1/analyze?maxlag=100000", "/v1/measure?codec=nope"} {
		if code, data := postBin(t, hs.URL+url, body); code != http.StatusBadRequest {
			t.Fatalf("%s: got %d (%s), want 400", url, code, data)
		}
		checkSpools("rejected "+url, before)
	}

	for i, wantCached := range []bool{false, true} {
		code, data := postBin(t, hs.URL+"/v1/analyze?window=8&maxlag=4&stats=variogram", body)
		if code != http.StatusOK {
			t.Fatalf("analyze #%d: %d %s", i, code, data)
		}
		if env := decodeEnvelope(t, data, nil); env.Cached != wantCached {
			t.Fatalf("analyze #%d: cached=%v, want %v", i, env.Cached, wantCached)
		}
		checkSpools(fmt.Sprintf("analyze #%d", i), before)
	}

	// Wedge the single executor, queue a spooled job behind it, and fill
	// the queue: the next spooled submission is a 429.
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
	code, data := postBin(t, hs.URL+"/v1/jobs/analyze?window=8", big(61))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: %d %s", code, data)
	}
	var queued JobInfo
	mustJSON(t, data, &queued)
	checkSpools("queued job", before+1)
	if code, data := postBin(t, hs.URL+"/v1/jobs/analyze?window=8", big(62)); code != http.StatusTooManyRequests {
		t.Fatalf("over-admission submit: got %d (%s), want 429", code, data)
	}
	checkSpools("queue-full 429", before+1)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitJobTerminal(t, hs.URL, queued.ID); got.State != JobCancelled {
		t.Fatalf("queued job ended %s, want cancelled", got.State)
	}
	release()
	waitFor(t, 10*time.Second, "the cancelled job's spool to go", func() bool {
		return spoolCount(t) == before
	})
}
