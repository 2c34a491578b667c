package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"lossycorr/internal/field"
)

// serveDeclared runs one request through the handler with the given
// Content-Length, which may lie about body, and returns the response
// and the bytes the process allocated meanwhile.
func serveDeclared(h http.Handler, target string, body io.Reader, declared int64) (*httptest.ResponseRecorder, uint64) {
	req := httptest.NewRequest(http.MethodPost, target, body)
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc
}

// TestIntakeHostileContentLength: a Content-Length that lies about its
// body is rejected with a typed error on every intake path, leaves no
// spool file behind, and never makes the server allocate for bytes that
// did not arrive.
func TestIntakeHostileContentLength(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	maxBody := s.Config().MaxBodyBytes
	body := gaussBody(t, 64, 8, 3)
	before := spoolCount(t)
	for _, c := range []struct {
		name     string
		target   string
		body     []byte
		declared int64
		status   int
		allocCap uint64 // 0: no bound checked
	}{
		// The sync body is read in RAM; the async one is declared past
		// spoolMemLimit, so it goes straight to a temp file.
		{"short sync body", "/v1/analyze", body, int64(len(body)) + 100, http.StatusBadRequest, 0},
		{"short async body", "/v1/jobs/analyze", body, 2 << 20, http.StatusBadRequest, 0},
		{"long sync body", "/v1/analyze", body, int64(len(body)) - 100, http.StatusBadRequest, 0},
		{"over the cap, sync", "/v1/analyze", body, maxBody + 1, http.StatusRequestEntityTooLarge, spoolMemLimit},
		{"over the cap, async", "/v1/jobs/measure", body, maxBody + 1, http.StatusRequestEntityTooLarge, spoolMemLimit},
		{"the cap, 8 bytes, sync", "/v1/measure", body[:8], maxBody, http.StatusBadRequest, 2 * spoolMemLimit},
		{"the cap, 8 bytes, async", "/v1/jobs/analyze", body[:8], maxBody, http.StatusBadRequest, 2 * spoolMemLimit},
	} {
		rec, alloc := serveDeclared(h, c.target, bytes.NewReader(c.body), c.declared)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d (%s), want %d", c.name, rec.Code, rec.Body, c.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: answer %q is not an error object", c.name, rec.Body)
		}
		if c.allocCap > 0 && alloc > c.allocCap {
			t.Fatalf("%s: allocated %d bytes, want under %d", c.name, alloc, c.allocCap)
		}
		if n := spoolCount(t); n != before {
			t.Fatalf("%s: %d spool files, want %d", c.name, n, before)
		}
		t.Logf("%s: %d %s (%d bytes allocated)", c.name, rec.Code, strings.TrimSpace(e.Error), alloc)
	}

	// A chunked body (no Content-Length) is read whole all the same.
	rec, _ := serveDeclared(h, "/v1/analyze?stats=variogram", bytes.NewReader(body), -1)
	if rec.Code != http.StatusOK {
		t.Fatalf("chunked sync body: %d %s", rec.Code, rec.Body)
	}
}

// TestAnalyzeHitAllocs bounds what a warm cache hit allocates: the
// upload is held once, in a buffer of its own size, and nothing else
// on the path is near its size. The parent design staged it through a
// growing bytes.Buffer and allocated ~2.1 MB per hit on this 512 KiB
// body.
func TestAnalyzeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops inflate the encoder's allocations")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	body := gaussBody(t, 256, 16, 5)
	do := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
	}
	do() // the miss that fills the cache
	do()
	const runs = 20
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		do()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	budget := 1.25 * float64(len(body))
	if per > budget {
		t.Fatalf("a warm hit allocates %.0f bytes, over the %.0f-byte budget (1.25x the %d-byte body)",
			per, budget, len(body))
	}
	t.Logf("a warm hit allocates %.0f bytes for a %d-byte body", per, len(body))
	if st := s.Stats(); st.CacheHits < runs {
		t.Fatalf("%d cache hits, want at least %d", st.CacheHits, runs)
	}
}

// TestLentPayloadUnchanged: analyze, measure and predict read an
// in-RAM payload in place, and leave its bytes as they were, on either
// lane and through the rank-3 codecs too.
func TestLentPayloadUnchanged(t *testing.T) {
	s := New(Config{TrainEdge2D: 32, TrainEdge3D: 12, TrainFields: 4})
	defer s.Close()
	queries := map[string]string{
		"analyze": "window=8&maxlag=4",
		"measure": "window=8&maxlag=4&eb=1e-3",
		"predict": "window=8&maxlag=4&eb=1e-3",
	}
	vol, _ := volumeBody(t, []int{12, 16, 16}, 91)
	var vol32 bytes.Buffer
	if err := vol.Narrow().WriteBinary(&vol32); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"rank-2 f64", intakeBody(t, 64, 64, 90, false)},
		{"rank-2 f32", intakeBody(t, 64, 64, 90, true)},
		{"rank-3 f32", vol32.Bytes()},
	} {
		raw := field.AlignedBytes(len(c.body))
		copy(raw, c.body)
		if !lends(t, raw) {
			t.Fatalf("%s: a payload in aligned bytes was not lent", c.name)
		}
		for _, kind := range []string{"analyze", "measure", "predict"} {
			src, err := s.memSource([]byte(kind), raw)
			if err != nil {
				t.Fatal(err)
			}
			q, err := url.ParseQuery(queries[kind])
			if err != nil {
				t.Fatal(err)
			}
			spec, err := s.fieldSpec(kind, src, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spec.run(context.Background()); err != nil {
				t.Fatalf("%s %s: %v", c.name, kind, err)
			}
			src.close()
			if !bytes.Equal(raw, c.body) {
				t.Fatalf("%s %s wrote to the lent payload", c.name, kind)
			}
		}
	}
}

// lends reports whether a reader over raw lends its payload to ReadAll.
func lends(t *testing.T, raw []byte) bool {
	t.Helper()
	tr, err := field.NewTileReaderBytes(raw, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	wide, narrow, err := tr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	payload := unsafe.Pointer(&raw[len(raw)-int(tr.PayloadBytes())])
	if narrow != nil {
		return unsafe.Pointer(unsafe.SliceData(narrow.Data)) == payload
	}
	return unsafe.Pointer(unsafe.SliceData(wide.Data)) == payload
}

// TestIntakeRank3Float64CopyPath: a rank-3 float64 payload sits behind
// a 20-byte header, off its 8-byte alignment, so the reader copies it
// rather than lend it; the statistics are the library's, bit for bit.
func TestIntakeRank3Float64CopyPath(t *testing.T) {
	s, hs := testServer(t, Config{})
	f, body := volumeBody(t, []int{12, 16, 16}, 23)
	raw := field.AlignedBytes(len(body))
	copy(raw, body)
	if lends(t, raw) {
		t.Fatal("a float64 payload behind a 20-byte header was lent")
	}
	code, data := postBin(t, hs.URL+"/v1/analyze?window=8&maxlag=4", body)
	if code != http.StatusOK {
		t.Fatalf("analyze: %d %s", code, data)
	}
	want, err := json.Marshal(libraryResult(t, s, "analyze", f))
	if err != nil {
		t.Fatal(err)
	}
	if got := rawResult(t, data); !bytes.Equal(got, want) {
		t.Fatalf("analyze:\n got %s\nwant %s", got, want)
	}
}

// TestReadHashed: every body, on either side of the first-stage size,
// whether its length is known or only bounded, comes back whole, hashed,
// aligned and in memory of its own, never in the pooled stage that the
// next body reuses; a body longer than its limit shows its extra byte.
func TestReadHashed(t *testing.T) {
	src := make([]byte, 3*spoolMemLimit+5)
	for i := range src {
		src[i] = byte(i*7 + i>>11)
	}
	for _, n := range []int{0, 1, 4099, spoolMemLimit - 1, spoolMemLimit, spoolMemLimit + 1, 3*spoolMemLimit + 5} {
		body := src[:n]
		want := sha256.Sum256(body)
		for _, limit := range []int64{int64(n), 4 * spoolMemLimit} {
			h := sha256.New()
			buf, extra, err := readHashed(iotest.HalfReader(bytes.NewReader(body)), h, limit)
			if err != nil || extra != nil {
				t.Fatalf("n=%d limit=%d: extra %v, err %v", n, limit, extra, err)
			}
			if !bytes.Equal(buf, body) || !bytes.Equal(h.Sum(nil), want[:]) {
				t.Fatalf("n=%d limit=%d: bytes or hash differ", n, limit)
			}
			if n > 0 && uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
				t.Fatalf("n=%d limit=%d: buffer not 8-byte aligned", n, limit)
			}
			// The next body must not land in this one's memory.
			if _, _, err := readHashed(bytes.NewReader(make([]byte, spoolMemLimit+1)), sha256.New(), 4*spoolMemLimit); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, body) {
				t.Fatalf("n=%d limit=%d: a later body overwrote this one", n, limit)
			}
		}
		if n > 0 {
			buf, extra, err := readHashed(bytes.NewReader(body), sha256.New(), int64(n-1))
			if err != nil || len(buf) != n-1 || len(extra) != 1 || extra[0] != body[n-1] {
				t.Fatalf("n=%d over limit %d: got %d bytes, extra %v, err %v", n, n-1, len(buf), extra, err)
			}
		}
	}
}

// TestReadHashedAllocs: a body over the first-stage size, here a 512²
// float64 field's 2 MiB + 8 B, allocates about its own size once the
// pooled stage is warm, not a dropped first MiB on top.
func TestReadHashedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the pooled stage at random")
	}
	body := make([]byte, 2*spoolMemLimit+8)
	read := func() {
		if _, _, err := readHashed(bytes.NewReader(body), sha256.New(), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}
	read()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if budget := 1.25 * float64(len(body)); per > budget {
		t.Fatalf("reading a %d-byte body allocates %.0f bytes, over the %.0f-byte budget", len(body), per, budget)
	}
}
