package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentIdenticalSubmissionsSingleflight pins the dedup
// contract under -race: N clients POSTing byte-identical bodies at
// once get N identical 200s while the pipeline runs exactly once —
// the leader computes, concurrent followers join its flight, and
// stragglers hit the cache the flight populated before tearing down.
func TestConcurrentIdenticalSubmissionsSingleflight(t *testing.T) {
	s, hs := testServer(t, Config{})
	body := gaussBody(t, 128, 12, 21)

	const n = 12
	results := make([]analyzeResult, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, data := postBin(t, hs.URL+"/v1/analyze", body)
			if code != http.StatusOK {
				errs <- &apiError{status: code, msg: string(data)}
				return
			}
			decodeEnvelope(t, data, &results[i])
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.AnalyzeRuns != 1 {
		t.Fatalf("pipeline ran %d times for %d identical submissions, want exactly 1", st.AnalyzeRuns, n)
	}
	if st.FlightsJoined+st.CacheHits != n-1 {
		t.Fatalf("joined=%d hits=%d, want them to cover the %d non-leaders", st.FlightsJoined, st.CacheHits, n-1)
	}
	for i := 1; i < n; i++ {
		if !results[i].Stats.Equal(results[0].Stats) {
			t.Fatalf("response %d differs: %+v vs %+v", i, results[i], results[0])
		}
	}
}

// TestConcurrentJobMix hammers the job table and cache from many
// goroutines: three distinct contents, four async submissions each,
// all polled to completion. Under -race this covers the job state
// machine, the queue, and the flight group concurrently.
func TestConcurrentJobMix(t *testing.T) {
	s, hs := testServer(t, Config{Executors: 4, MaxQueue: 32})
	bodies := [][]byte{
		gaussBody(t, 48, 6, 31),
		gaussBody(t, 48, 12, 32),
		gaussBody(t, 48, 24, 33),
	}

	const perBody = 4
	ids := make([]string, 0, len(bodies)*perBody)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range bodies {
		for k := 0; k < perBody; k++ {
			wg.Add(1)
			go func(b []byte) {
				defer wg.Done()
				code, data := postBin(t, hs.URL+"/v1/jobs/analyze", b)
				if code != http.StatusAccepted {
					t.Errorf("submit: %d %s", code, data)
					return
				}
				var info JobInfo
				if err := json.Unmarshal(data, &info); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, info.ID)
				mu.Unlock()
			}(b)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, id := range ids {
		if final := waitJobTerminal(t, hs.URL, id); final.State != JobDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}
	st := s.Stats()
	if st.AnalyzeRuns != int64(len(bodies)) {
		t.Fatalf("pipeline ran %d times for %d distinct contents", st.AnalyzeRuns, len(bodies))
	}
	if st.JobsCompleted != int64(len(ids)) {
		t.Fatalf("completed %d of %d jobs", st.JobsCompleted, len(ids))
	}
}

// TestRunCachedRecheckAfterTeardown forces the interleaving behind a
// duplicate pipeline run: caller B misses the cache, and before B
// reaches the flight group caller A misses too, leads, writes the
// cache and tears its flight down. B then leads a fresh flight and must
// find A's result there, as a cache hit, instead of running again.
func TestRunCachedRecheckAfterTeardown(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	runs := 0
	spec := runSpec{kind: "analyze", key: "k", run: func(context.Context) (any, error) {
		runs++
		return "result", nil
	}}
	var aCached bool
	var aErr error
	s.afterCacheMiss = func() {
		s.afterCacheMiss = nil
		_, aCached, aErr = s.runCached(context.Background(), spec) // A, inside B's gap
	}
	v, cached, err := s.runCached(context.Background(), spec) // B
	if aErr != nil || aCached {
		t.Fatalf("caller A: cached=%v err=%v, want a fresh run", aCached, aErr)
	}
	if err != nil || v != "result" || !cached {
		t.Fatalf("caller B: %v cached=%v err=%v, want A's result as a cache hit", v, cached, err)
	}
	st := s.Stats()
	if runs != 1 || st.AnalyzeRuns != 1 || st.CacheHits != 1 || st.FlightsJoined != 0 {
		t.Fatalf("runs=%d analyzeRuns=%d cacheHits=%d flightsJoined=%d, want 1/1/1/0",
			runs, st.AnalyzeRuns, st.CacheHits, st.FlightsJoined)
	}
}
