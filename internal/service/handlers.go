package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/variogram"
)

// runSpec is one executable request: the pipeline kind, its content
// address, the closure that computes the result under a context, and
// the predicted transform peak used by memory-budget admission.
// Sync endpoints run specs on the request goroutine with the request's
// context; async jobs run them on an executor with the job's context.
// cleanup, when set, owns resources the run closure borrows (an open
// tile reader, a spooled temp file); the holder calls release exactly
// once after the spec can never run again.
type runSpec struct {
	kind      string
	key       string
	peakBytes int64
	run       func(ctx context.Context) (any, error)
	cleanup   func()
}

// release runs the spec's cleanup at most once.
func (sp *runSpec) release() {
	if sp.cleanup != nil {
		sp.cleanup()
		sp.cleanup = nil
	}
}

// apiError carries an HTTP status through the handler plumbing.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// writeJSON marshals to a buffer before touching the ResponseWriter,
// so a serialization failure surfaces as a 500 instead of a truncated
// body behind an already-committed success header.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":"encoding response failed"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(buf, '\n'))
}

// writeError answers with the status an apiError carries; a non-finite
// field value reaching the local-SVD eigensolve is the client's input,
// so it is a 400, and anything else is a 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, linalg.ErrNonFinite):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Handler returns the corrcompd route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/analyze", s.syncHandler("analyze"))
	mux.HandleFunc("POST /v1/measure", s.syncHandler("measure"))
	mux.HandleFunc("POST /v1/predict", s.syncHandler("predict"))
	mux.HandleFunc("POST /v1/jobs/{kind}", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}

// ---- field intake ------------------------------------------------

func (s *Server) maxElements() int { return int(s.cfg.MaxBodyBytes / 8) }

// uploadField is the lane-dispatched result of a field upload: exactly
// one of the two lanes is set, per the wire format's element tag. Both
// lanes flow through the same option validation and cache addressing
// (the lane is part of the raw bytes, so the content address already
// distinguishes them); the spec builders pick the pipeline.
type uploadField struct {
	wide   *field.Field
	narrow *field.Field32
}

func (u uploadField) shape() []int {
	if u.narrow != nil {
		return u.narrow.Shape
	}
	return u.wide.Shape
}

func (u uploadField) ndim() int { return len(u.shape()) }

func (u uploadField) minDim() int {
	if u.narrow != nil {
		return u.narrow.MinDim()
	}
	return u.wide.MinDim()
}

// elemBytes is the lane's element width — the factor the float32 lane
// halves in every transform plane and pooled buffer.
func (u uploadField) elemBytes() int64 {
	if u.narrow != nil {
		return 4
	}
	return 8
}

// spoolMemLimit is the largest upload kept wholly in memory while
// spooling; bigger bodies spill to a temp file as they are hashed, so
// the server never holds both the raw bytes and the parsed field.
const spoolMemLimit = 1 << 20

// fieldSource is a request's resolved field payload. digest is the
// SHA-256 of the payload bytes — computed while the body spools, so
// the content address never requires the whole payload in memory.
// Exactly one representation is live: the parsed in-RAM lanes (u), or
// a backing file path for out-of-core streaming.
type fieldSource struct {
	digest []byte
	size   int64
	u      uploadField
	path   string // backing file for streaming ("" when parsed in RAM)
	temp   bool   // path is a spooled temp file to delete after the run
}

func (src fieldSource) streaming() bool { return src.path != "" }

// resolveField resolves the field of a request: the raw body (bounded
// by MaxBodyBytes) or a ?dataset=name reference into the server's data
// directory. With streamOK (an analyze request on a server with a
// StreamBudget), payloads over the budget stay on disk — the spooled
// temp file or the dataset file itself — for out-of-core analysis;
// everything else parses in RAM, with the byte budget enforced before
// the parse and the parse validating the header's shape before
// allocating, so a hostile request cannot make the server reserve more
// memory than the configured caps. (The element budget is derived from
// the float64 width for both lanes, so the guarantee holds regardless
// of which lane the header claims.)
func (s *Server) resolveField(w http.ResponseWriter, r *http.Request, streamOK bool) (fieldSource, error) {
	if name := r.URL.Query().Get("dataset"); name != "" {
		return s.datasetSource(name, streamOK)
	}
	return s.spoolBody(w, r, streamOK)
}

// datasetSource resolves ?dataset=name. Streaming datasets are hashed
// in place (one sequential read, no allocation) and may exceed
// MaxBodyBytes — the whole point of out-of-core analysis; in-RAM use
// keeps the cap.
func (s *Server) datasetSource(name string, streamOK bool) (fieldSource, error) {
	if s.cfg.DataDir == "" {
		return fieldSource{}, apiErrorf(http.StatusNotFound, "no dataset directory configured")
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return fieldSource{}, apiErrorf(http.StatusBadRequest, "invalid dataset name %q", name)
	}
	p := filepath.Join(s.cfg.DataDir, name)
	st, err := os.Stat(p)
	if err != nil || st.IsDir() {
		return fieldSource{}, apiErrorf(http.StatusNotFound, "unknown dataset %q", name)
	}
	stream := streamOK && st.Size() > s.cfg.StreamBudget
	if !stream && st.Size() > s.cfg.MaxBodyBytes {
		return fieldSource{}, apiErrorf(http.StatusRequestEntityTooLarge,
			"dataset %q is %d bytes, over the %d-byte cap", name, st.Size(), s.cfg.MaxBodyBytes)
	}
	f, err := os.Open(p)
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "reading dataset %q: %v", name, err)
	}
	defer f.Close()
	h := sha256.New()
	if stream {
		if _, err := io.Copy(h, f); err != nil {
			return fieldSource{}, apiErrorf(http.StatusInternalServerError, "hashing dataset %q: %v", name, err)
		}
		return fieldSource{digest: h.Sum(nil), size: st.Size(), path: p}, nil
	}
	raw, err := io.ReadAll(io.TeeReader(f, h))
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "reading dataset %q: %v", name, err)
	}
	return s.parseSource(fieldSource{digest: h.Sum(nil), size: int64(len(raw))}, raw)
}

// spoolBody drains the request body through the content hasher into a
// memory buffer, spilling to a temp file past the spool limit (or past
// the stream budget, so anything that will stream lands on disk). The
// temp file of a non-streaming body is deleted as soon as the field is
// parsed; a streaming body's spool lives until the spec's cleanup.
func (s *Server) spoolBody(w http.ResponseWriter, r *http.Request, streamOK bool) (fieldSource, error) {
	badBody := func(err error) error {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return apiErrorf(http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return apiErrorf(http.StatusBadRequest, "reading body: %v", err)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spillAt := int64(spoolMemLimit)
	if streamOK && s.cfg.StreamBudget < spillAt {
		spillAt = s.cfg.StreamBudget
	}
	h := sha256.New()
	var buf bytes.Buffer
	n, err := io.Copy(io.MultiWriter(&buf, h), io.LimitReader(body, spillAt))
	if err != nil {
		return fieldSource{}, badBody(err)
	}
	if n < spillAt {
		if n == 0 {
			return fieldSource{}, apiErrorf(http.StatusBadRequest,
				"empty field payload: POST a binary field or pass ?dataset=name")
		}
		return s.parseSource(fieldSource{digest: h.Sum(nil), size: n}, buf.Bytes())
	}
	tmp, err := os.CreateTemp("", "corrcompd-spool-*")
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "spooling body: %v", err)
	}
	drop := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		drop()
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "spooling body: %v", err)
	}
	m, err := io.Copy(io.MultiWriter(tmp, h), body)
	if err != nil {
		drop()
		return fieldSource{}, badBody(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "spooling body: %v", err)
	}
	src := fieldSource{digest: h.Sum(nil), size: n + m, path: tmp.Name(), temp: true}
	if streamOK && src.size > s.cfg.StreamBudget {
		return src, nil
	}
	raw, err := os.ReadFile(src.path)
	os.Remove(src.path)
	src.path, src.temp = "", false
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "reading spooled body: %v", err)
	}
	return s.parseSource(src, raw)
}

// parseSource finishes an in-RAM source: the payload parses onto its
// stored lane and the raw bytes are dropped.
func (s *Server) parseSource(src fieldSource, raw []byte) (fieldSource, error) {
	wide, narrow, err := field.ReadAnyLimit(bytes.NewReader(raw), s.maxElements())
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusBadRequest, "bad field payload: %v", err)
	}
	src.u = uploadField{wide: wide, narrow: narrow}
	return src, nil
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Bytes int64  `json:"bytes"`
	}
	out := []entry{}
	if s.cfg.DataDir != "" {
		des, err := os.ReadDir(s.cfg.DataDir)
		if err != nil {
			s.writeError(w, apiErrorf(http.StatusInternalServerError, "listing datasets: %v", err))
			return
		}
		for _, de := range des {
			if de.Type().IsRegular() {
				if info, err := de.Info(); err == nil {
					out = append(out, entry{Name: de.Name(), Bytes: info.Size()})
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// ---- option parsing ----------------------------------------------

func queryInt(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, apiErrorf(http.StatusBadRequest, "bad %s=%q: %v", name, s, err)
	}
	return n, nil
}

func queryFloat(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, apiErrorf(http.StatusBadRequest, "bad %s=%q: %v", name, s, err)
	}
	return v, nil
}

func queryBool(q url.Values, name string, def bool) (bool, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, apiErrorf(http.StatusBadRequest, "bad %s=%q: %v", name, s, err)
	}
	return v, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// analysisParams is the service surface over core.AnalysisOptions.
// Its canonical string is part of the cache key, so two requests that
// spell the same options differently (e.g. ?vfft=1 vs ?vfft=true)
// still address the same cache entry.
type analysisParams struct {
	window    int
	maxLag    int
	frac      float64
	vfft      bool
	skipLocal bool
	gram      bool
	// stats is the kernel selection (?stats=variogram,svd), validated
	// against the registry at parse time and normalized (sorted,
	// deduplicated) so spelling order never splits the cache. Empty
	// means every registered kernel.
	stats []string
}

// parseStatsSelection validates and normalizes a ?stats= value. The
// run order is fixed by the registry regardless of spelling, so the
// canonical form is the sorted, deduplicated name set.
func parseStatsSelection(v string) ([]string, error) {
	if v == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	names := make([]string, 0, 4)
	for _, part := range strings.Split(v, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, ok := stat.Lookup(name); !ok {
			return nil, apiErrorf(http.StatusBadRequest,
				"unknown statistic %q (registered: %s)", name, strings.Join(stat.Names(), ", "))
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, "empty stats selection")
	}
	sort.Strings(names)
	return names, nil
}

func parseAnalysisParams(q url.Values) (analysisParams, error) {
	p := analysisParams{window: core.DefaultWindow, frac: svdstat.DefaultVarianceFraction, gram: true}
	var err error
	if p.window, err = queryInt(q, "window", p.window); err != nil {
		return p, err
	}
	if p.stats, err = parseStatsSelection(q.Get("stats")); err != nil {
		return p, err
	}
	if p.maxLag, err = queryInt(q, "maxlag", 0); err != nil {
		return p, err
	}
	if p.frac, err = queryFloat(q, "frac", p.frac); err != nil {
		return p, err
	}
	if p.vfft, err = queryBool(q, "vfft", false); err != nil {
		return p, err
	}
	if p.skipLocal, err = queryBool(q, "skiplocal", false); err != nil {
		return p, err
	}
	if p.gram, err = queryBool(q, "gram", true); err != nil {
		return p, err
	}
	if p.window < 2 {
		return p, apiErrorf(http.StatusBadRequest, "window must be >= 2, got %d", p.window)
	}
	if p.maxLag < 0 {
		return p, apiErrorf(http.StatusBadRequest, "maxlag must be >= 0, got %d", p.maxLag)
	}
	// Written so NaN fails too: it would otherwise pass the level
	// check, answer 200 with garbage, and be cached.
	if !(p.frac > 0 && p.frac <= 1) {
		return p, apiErrorf(http.StatusBadRequest, "frac must be in (0,1], got %v", p.frac)
	}
	return p, nil
}

// validateMaxLag bounds the lag cutoff by the field's own shape. The
// direct scan enumerates O((2·maxlag+1)^ndim) lattice offsets and the
// FFT path pads every axis by maxlag before transforming, so an
// unbounded query parameter would let a tiny upload demand unbounded
// CPU and memory regardless of the body-size cap. The ceiling is half
// the smallest extent — the same value the engine substitutes for
// maxlag=0 — so no request can cost more than the default already does.
func validateMaxLag(maxLag, minDim int) error {
	ceil := minDim / 2
	if ceil < 1 {
		ceil = 1
	}
	if maxLag > ceil {
		return apiErrorf(http.StatusBadRequest,
			"maxlag %d exceeds the cap %d for this field (half its smallest extent)", maxLag, ceil)
	}
	return nil
}

// predictedPeakBytes estimates the transform working set of one
// pipeline run on u before it is admitted: with vfft it is the FFT
// exact engine's variogram.FFTPeakBytes at the lane's width — one
// padded real plane of Π_k FastLen(dim_k + L) elements plus the larger
// of its half-spectrum and the float64 summed-area table. Without the
// FFT engine the working set is the windowed extraction's, bounded by
// the field itself — which the body cap already limits — so the
// prediction degenerates to the field bytes.
func predictedPeakBytes(u uploadField, p analysisParams) int64 {
	dims := u.shape()
	lag := p.maxLag
	if lag == 0 {
		// The engine's substitute for maxlag=0: half the smallest extent.
		if lag = u.minDim() / 2; lag < 1 {
			lag = 1
		}
	}
	if !p.vfft {
		total := u.elemBytes()
		for _, d := range dims {
			total *= int64(d)
		}
		return total
	}
	return variogram.FFTPeakBytes(dims, lag, int(u.elemBytes()))
}

func (p analysisParams) canon() string {
	c := fmt.Sprintf("w=%d|lag=%d|frac=%s|vfft=%t|skip=%t|gram=%t",
		p.window, p.maxLag, fmtFloat(p.frac), p.vfft, p.skipLocal, p.gram)
	// The selection joins the canon only when present, so every cache
	// key minted before the stats option existed stays valid.
	if len(p.stats) > 0 {
		c += "|stats=" + strings.Join(p.stats, ",")
	}
	return c
}

func (p analysisParams) options(workers int) core.AnalysisOptions {
	o := core.AnalysisOptions{
		Window:           p.window,
		VarianceFraction: p.frac,
		SkipLocal:        p.skipLocal,
		VariogramFFT:     p.vfft,
		Workers:          workers,
	}
	o.VariogramOpts.MaxLag = p.maxLag
	o.Stats = p.stats
	if !p.gram {
		o.SVDGram = svdstat.GramOff
	}
	return o
}

func parseErrorBounds(s string) ([]float64, error) {
	if s == "" {
		return compress.PaperErrorBounds, nil
	}
	parts := strings.Split(s, ",")
	ebs := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || compress.CheckBound(v) != nil {
			return nil, apiErrorf(http.StatusBadRequest, "bad error bound %q", p)
		}
		ebs = append(ebs, v)
	}
	return ebs, nil
}

func canonFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmtFloat(v)
	}
	return strings.Join(parts, ",")
}

// ---- spec builders -----------------------------------------------

type analyzeResult struct {
	Shape []int           `json:"shape"`
	Stats core.Statistics `json:"stats"`
}

type measureResult struct {
	Shape   []int             `json:"shape"`
	Stats   core.Statistics   `json:"stats"`
	Results []compress.Result `json:"results"`
}

type predictResult struct {
	// Shape is the uploaded field's shape; empty on the stats-only
	// (?stat=) path, which never sees a field.
	Shape          []int           `json:"shape,omitempty"`
	Stats          core.Statistics `json:"stats"`
	ErrorBound     float64         `json:"errorBound"`
	Compressor     string          `json:"compressor"`
	PredictedRatio float64         `json:"predictedRatio"`
	// Lo and Hi bracket PredictedRatio with the model's t-based
	// prediction interval at Level when ?interval=1 was requested.
	Lo    *float64 `json:"lo,omitempty"`
	Hi    *float64 `json:"hi,omitempty"`
	Level float64  `json:"level,omitempty"`
	// ModelKey is the content address of the predictor that answered:
	// the model file's hash for boot-loaded models, the training canon's
	// hash for lazily trained ones.
	ModelKey string `json:"modelKey,omitempty"`
	// Selected is true when the server chose the compressor (no
	// ?codec= was given) rather than scoring a requested one.
	Selected bool `json:"selected"`
}

// parsePredictParams validates the option set shared by the field and
// stats-only predict paths. A requested codec is checked against
// whatever will serve the request: the boot-loaded model's own fit set
// when one covers (rank, eb) — model files may carry codec names the
// built-in registry has never heard of — or the registry the lazy
// trainer draws from otherwise.
func (s *Server) parsePredictParams(q url.Values, rank int) (eb float64, codec string, interval bool, err error) {
	if eb, err = queryFloat(q, "eb", 1e-3); err != nil {
		return
	}
	if cerr := compress.CheckBound(eb); cerr != nil {
		err = apiErrorf(http.StatusBadRequest, "eb: %v", cerr)
		return
	}
	codec = q.Get("codec")
	if codec != "" {
		if pred, _, ok := s.models.lookup(rank, eb); ok {
			if _, has := pred.Fit(codec, eb); !has {
				err = apiErrorf(http.StatusBadRequest,
					"serving model has no codec %q at eb=%g (have %v)", codec, eb, pred.Models())
				return
			}
		} else if _, cerr := core.DefaultRegistry().GetFor(codec, rank); cerr != nil {
			err = apiErrorf(http.StatusBadRequest, "%v", cerr)
			return
		}
	}
	interval, err = queryBool(q, "interval", false)
	return
}

// modelCanon is the serving-model component of a predict cache key:
// the boot-loaded model's content address when one serves (rank, eb),
// the training canon otherwise. The boot registry is immutable after
// New, so the choice is stable for the process lifetime and cached
// predict responses can never alias across serving models.
func (s *Server) modelCanon(rank int, eb float64) string {
	if _, key, ok := s.models.lookup(rank, eb); ok {
		return "model=" + key
	}
	return s.trainCanon(rank, eb)
}

// predictOutcome scores (or selects) a compressor from
// already-computed statistics — the shared tail of both predict paths.
func predictOutcome(pred *core.Predictor, modelKey string, eb float64, codec string, interval bool, stats core.Statistics) (predictResult, error) {
	res := predictResult{Stats: stats, ErrorBound: eb, ModelKey: modelKey}
	if codec == "" {
		sel, err := pred.SelectCompressor(eb, stats)
		if err != nil {
			return predictResult{}, err
		}
		res.Compressor, res.PredictedRatio, res.Selected = sel.Compressor, sel.Predicted, true
	} else {
		ratio, err := pred.PredictRatio(codec, eb, stats)
		if err != nil {
			return predictResult{}, err
		}
		res.Compressor, res.PredictedRatio = codec, ratio
	}
	if interval {
		p, err := pred.PredictRatioInterval(res.Compressor, eb, stats, 0)
		if err != nil {
			return predictResult{}, err
		}
		lo, hi := p.Lo, p.Hi
		res.Lo, res.Hi, res.Level = &lo, &hi, p.Level
	}
	return res, nil
}

// buildStatPredictSpec builds the body-less predict spec: the client
// supplies the selected statistic directly (?stat=, already computed
// by an earlier analyze or offline) and the server only evaluates the
// fitted model — microseconds against a boot-loaded predictor, no
// field upload, no analysis pipeline.
func (s *Server) buildStatPredictSpec(q url.Values) (runSpec, error) {
	stat, err := queryFloat(q, "stat", 0)
	if err != nil {
		return runSpec{}, err
	}
	if stat <= 0 {
		return runSpec{}, apiErrorf(http.StatusBadRequest,
			"stat must be > 0 (the log model is undefined at %g)", stat)
	}
	rank, err := queryInt(q, "ndim", 2)
	if err != nil {
		return runSpec{}, err
	}
	if rank != 2 && rank != 3 {
		return runSpec{}, apiErrorf(http.StatusBadRequest,
			"prediction supports ndim 2 and 3, got %d", rank)
	}
	eb, codec, interval, err := s.parsePredictParams(q, rank)
	if err != nil {
		return runSpec{}, err
	}
	canon := fmt.Sprintf("stat=%s|rank=%d|eb=%s|codec=%s|interval=%t|%s",
		fmtFloat(stat), rank, fmtFloat(eb), codec, interval, s.modelCanon(rank, eb))
	return runSpec{
		kind: "predict",
		key:  cacheKey("predict", canon, nil),
		run: func(ctx context.Context) (any, error) {
			pred, modelKey, err := s.predictor(ctx, rank, eb)
			if err != nil {
				return nil, err
			}
			stats := pred.Selector().WithValue(stat)
			return predictOutcome(pred, modelKey, eb, codec, interval, stats)
		},
	}, nil
}

// buildSpec validates a request completely — options, field payload,
// codec names — before any pipeline work, so every 4xx happens at
// submit time and an admitted job can only fail on compute errors.
func (s *Server) buildSpec(kind string, w http.ResponseWriter, r *http.Request) (runSpec, error) {
	if kind == "predict" && r.URL.Query().Get("stat") != "" {
		// Stats-only prediction: no field payload to resolve — the body,
		// if any, is ignored.
		return s.buildStatPredictSpec(r.URL.Query())
	}
	streamOK := kind == "analyze" && s.cfg.StreamBudget > 0
	src, err := s.resolveField(w, r, streamOK)
	if err != nil {
		return runSpec{}, err
	}
	q := r.URL.Query()
	p, err := parseAnalysisParams(q)
	if err != nil {
		if src.temp {
			os.Remove(src.path)
		}
		return runSpec{}, err
	}
	if src.streaming() {
		return s.buildStreamSpec(src, p)
	}
	u := src.u
	if err := validateMaxLag(p.maxLag, u.minDim()); err != nil {
		return runSpec{}, err
	}
	workers := s.cfg.Workers
	shape := u.shape()

	// analyzeLane runs the analysis stage of any kind on the upload's
	// own lane: float32 uploads keep their half-bandwidth pipeline end
	// to end instead of being silently widened at the door.
	analyzeLane := func(ctx context.Context, aOpts core.AnalysisOptions) (core.Statistics, error) {
		if u.narrow != nil {
			return core.AnalyzeFieldCtx(ctx, u.narrow, aOpts)
		}
		return core.AnalyzeFieldCtx(ctx, u.wide, aOpts)
	}

	switch kind {
	case "analyze":
		aOpts := p.options(workers)
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, p.canon(), src.digest),
			peakBytes: predictedPeakBytes(u, p),
			run: func(ctx context.Context) (any, error) {
				stats, err := analyzeLane(ctx, aOpts)
				if err != nil {
					return nil, err
				}
				return analyzeResult{Shape: shape, Stats: stats}, nil
			},
		}, nil

	case "measure":
		ebs, err := parseErrorBounds(q.Get("eb"))
		if err != nil {
			return runSpec{}, err
		}
		codec := q.Get("codec")
		reg := core.DefaultRegistry()
		if codec != "" {
			c, err := reg.GetFor(codec, u.ndim())
			if err != nil {
				return runSpec{}, apiErrorf(http.StatusBadRequest, "%v", err)
			}
			sub := compress.NewRegistry()
			if err := sub.RegisterField(c); err != nil {
				return runSpec{}, err
			}
			reg = sub
		}
		canon := p.canon() + "|ebs=" + canonFloats(ebs) + "|codec=" + codec
		mOpts := core.MeasureOptions{Analysis: p.options(workers), ErrorBounds: ebs, Workers: workers}
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, canon, src.digest),
			peakBytes: predictedPeakBytes(u, p),
			run: func(ctx context.Context) (any, error) {
				var ms []core.Measurement
				var err error
				if u.narrow != nil {
					ms, err = core.MeasureFieldSetCtx(ctx, "request", []*field.Field32{u.narrow}, nil, reg, mOpts)
				} else {
					ms, err = core.MeasureFieldSetCtx(ctx, "request", []*field.Field{u.wide}, nil, reg, mOpts)
				}
				if err != nil {
					return nil, err
				}
				return measureResult{Shape: shape, Stats: ms[0].Stats, Results: ms[0].Results}, nil
			},
		}, nil

	case "predict":
		rank := u.ndim()
		if rank != 2 && rank != 3 {
			return runSpec{}, apiErrorf(http.StatusBadRequest,
				"prediction supports rank 2 and 3 fields, got rank %d", rank)
		}
		eb, codec, interval, err := s.parsePredictParams(q, rank)
		if err != nil {
			return runSpec{}, err
		}
		// The predictor regresses on the global range, so the target's
		// local statistics are never needed — and any client-side stats
		// selection is overridden; the model decides what it reads.
		p.skipLocal = true
		p.stats = nil
		aOpts := p.options(workers)
		canon := fmt.Sprintf("%s|eb=%s|codec=%s|interval=%t|%s",
			p.canon(), fmtFloat(eb), codec, interval, s.modelCanon(rank, eb))
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, canon, src.digest),
			peakBytes: predictedPeakBytes(u, p),
			run: func(ctx context.Context) (any, error) {
				pred, modelKey, err := s.predictor(ctx, rank, eb)
				if err != nil {
					return nil, err
				}
				stats, err := analyzeLane(ctx, aOpts)
				if err != nil {
					return nil, err
				}
				res, err := predictOutcome(pred, modelKey, eb, codec, interval, stats)
				if err != nil {
					return nil, err
				}
				res.Shape = shape
				return res, nil
			},
		}, nil
	}
	return runSpec{}, apiErrorf(http.StatusNotFound, "unknown job kind %q (want analyze, measure, or predict)", kind)
}

// buildStreamSpec builds the out-of-core analyze spec: the field stays
// on disk behind a tile reader and the pipeline streams budget-sized
// tiles, with the transform pool capped at Config.StreamBudget. The
// windowed statistics are bit-identical to the in-RAM pipeline; the
// spectral global variogram is tolerance-equivalent (exact pair
// counts), so the stream budget joins the canonical option string to
// keep streamed and slurped spectral results at distinct content
// addresses. Admission charges the budget itself — the streaming
// pipeline's transform peak is bounded by it.
func (s *Server) buildStreamSpec(src fieldSource, p analysisParams) (runSpec, error) {
	dropTemp := func() {
		if src.temp {
			os.Remove(src.path)
		}
	}
	// The element budget only guards header arithmetic here: the reader
	// rejects any header claiming more bytes than the file holds, so the
	// file's own size is the real bound.
	tr, err := field.OpenTileReaderMapped(src.path, int(src.size/4)+16)
	if err != nil {
		dropTemp()
		return runSpec{}, apiErrorf(http.StatusBadRequest, "bad field payload: %v", err)
	}
	if err := validateMaxLag(p.maxLag, tr.MinDim()); err != nil {
		tr.Close()
		dropTemp()
		return runSpec{}, err
	}
	budget := s.cfg.StreamBudget
	aOpts := p.options(s.cfg.Workers)
	aOpts.MemBudget = budget
	shape := tr.Shape()
	canon := p.canon() + "|stream=" + strconv.FormatInt(budget, 10)
	return runSpec{
		kind:      "analyze",
		key:       cacheKey("analyze", canon, src.digest),
		peakBytes: budget,
		cleanup: func() {
			tr.Close()
			dropTemp()
		},
		run: func(ctx context.Context) (any, error) {
			stats, err := core.AnalyzeReaderCtx(ctx, tr, aOpts)
			if err != nil {
				return nil, err
			}
			return analyzeResult{Shape: shape, Stats: stats}, nil
		},
	}, nil
}

// ---- predictor training ------------------------------------------

// trainSeed fixes the synthetic training set, so the trained models —
// and through them /v1/predict responses — are reproducible across
// server restarts.
const trainSeed = 1

func (s *Server) trainCanon(rank int, eb float64) string {
	edge := s.cfg.TrainEdge2D
	if rank == 3 {
		edge = s.cfg.TrainEdge3D
	}
	return fmt.Sprintf("train=%d|edge=%d|rank=%d|teb=%s", s.cfg.TrainFields, edge, rank, fmtFloat(eb))
}

// predictor returns the predictor serving (rank, eb) plus its content
// address. A boot-loaded model from Config.ModelDir answers first —
// that path never trains, so a fleet shipped a model artifact serves
// predictions in microseconds. Otherwise the model is trained lazily
// through the same cache + singleflight layer as results, so
// concurrent first predictions train once and the model is reused
// until evicted; completed trainings register in the /v1/models
// listing (but never in the boot lookup table, which stays immutable).
func (s *Server) predictor(ctx context.Context, rank int, eb float64) (*core.Predictor, string, error) {
	if pred, key, ok := s.models.lookup(rank, eb); ok {
		return pred, key, nil
	}
	key := cacheKey("train", s.trainCanon(rank, eb), nil)
	spec := runSpec{
		kind: "train",
		key:  key,
		run: func(ctx context.Context) (any, error) {
			return s.trainModel(ctx, rank, eb)
		},
	}
	v, _, err := s.runCached(ctx, spec)
	if err != nil {
		return nil, "", err
	}
	pred := v.(*core.Predictor)
	s.models.registerTrained(key, rank, pred)
	return pred, key, nil
}

// trainModel fits one log-regression per codec at the requested bound
// on synthetic Gaussian fields spanning a range ladder — the corrcomp
// predict subcommand's recipe, server-side.
func (s *Server) trainModel(ctx context.Context, rank int, eb float64) (*core.Predictor, error) {
	n := s.cfg.TrainFields
	fields := make([]*field.Field, 0, n)
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var f *field.Field
		var rang float64
		var err error
		if rank == 2 {
			edge := s.cfg.TrainEdge2D
			rang = float64(edge) / 64 * float64(int(2)<<uint(i%6))
			f, err = gaussian.Generate(gaussian.Params{
				Rows: edge, Cols: edge, Range: rang, Seed: trainSeed + uint64(i),
			})
		} else {
			edge := s.cfg.TrainEdge3D
			rang = float64(edge) / 16 * float64(int(1)<<uint(i%3))
			f, err = gaussian.Generate3D(gaussian.Params3D{
				Nz: edge, Ny: edge, Nx: edge, Range: rang, Seed: trainSeed + uint64(i),
			})
		}
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	ms, err := core.MeasureFieldSetCtx(ctx, "train", fields, labels, core.DefaultRegistry(),
		core.MeasureOptions{
			Analysis:    core.AnalysisOptions{SkipLocal: true},
			ErrorBounds: []float64{eb},
			Workers:     s.cfg.Workers,
		})
	if err != nil {
		return nil, err
	}
	pred, err := core.TrainPredictor(ms, core.XGlobalRange)
	if err != nil {
		return nil, err
	}
	edge := s.cfg.TrainEdge2D
	if rank == 3 {
		edge = s.cfg.TrainEdge3D
	}
	pred.SetProvenance(core.ModelProvenance{
		Source: "train", Rank: rank, TrainFields: n, TrainEdge: edge,
		Seed: trainSeed, Measurements: len(ms),
	})
	return pred, nil
}

// ---- sync + async handlers ---------------------------------------

// envelope wraps a sync response with per-request execution metadata;
// async jobs report the same metadata through their JobInfo instead.
type envelope struct {
	Cached        bool    `json:"cached"`
	ElapsedMs     float64 `json:"elapsedMs"`
	PoolPeakBytes int64   `json:"poolPeakBytes"`
	Result        any     `json:"result"`
}

func (s *Server) syncHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, err := s.buildSpec(kind, w, r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer spec.release()
		start := time.Now()
		val, cached, peak, err := s.execute(r.Context(), spec)
		if err != nil {
			if r.Context().Err() != nil {
				return // client is gone; nothing to write
			}
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, envelope{
			Cached:        cached,
			ElapsedMs:     float64(time.Since(start).Microseconds()) / 1e3,
			PoolPeakBytes: peak,
			Result:        val,
		})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := s.buildSpec(r.PathValue("kind"), w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	j, err := s.submitJob(spec)
	if err != nil {
		spec.release() // the spec will never run; drop its resources
	}
	if errors.Is(err, errQueueFull) {
		s.writeError(w, apiErrorf(http.StatusTooManyRequests,
			"job queue full (%d waiting); retry later", s.cfg.MaxQueue))
		return
	}
	var mbe *memBudgetError
	if errors.As(err, &mbe) {
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":              mbe.Error(),
			"predictedPeakBytes": mbe.predicted,
			"memReservedBytes":   mbe.reserved,
			"memBudgetBytes":     mbe.budget,
		})
		return
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobMu.Unlock()
	infos := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": infos})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, apiErrorf(http.StatusNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, apiErrorf(http.StatusNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	info, result := j.info, j.result
	j.mu.Unlock()
	switch info.State {
	case JobDone:
		writeJSON(w, http.StatusOK, envelope{
			Cached:        info.Cached,
			ElapsedMs:     info.ElapsedMs,
			PoolPeakBytes: info.PoolPeakBytes,
			Result:        result,
		})
	case JobQueued, JobRunning:
		writeJSON(w, http.StatusAccepted, info) // not ready; poll again
	case JobCancelled:
		writeJSON(w, http.StatusConflict, info)
	default: // JobFailed
		s.writeError(w, apiErrorf(http.StatusInternalServerError, "job failed: %s", info.Error))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, apiErrorf(http.StatusNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	if j.info.State == JobQueued {
		// Never reached an executor; finalize here. runJob skips
		// anything no longer queued. The job still occupies its queue
		// slot until an executor drains it (near-instantly, since the
		// early return does no work), so under heavy backlog admission
		// capacity briefly counts cancelled-but-undrained jobs — a
		// deliberate trade-off to keep admission a single channel send.
		j.info.State = JobCancelled
		j.info.Error = "cancelled before start"
		j.info.FinishedAt = time.Now()
		s.ctrCancelled.Add(1)
	}
	j.mu.Unlock()
	j.cancel() // a running job unwinds cooperatively via its context
	writeJSON(w, http.StatusAccepted, j.snapshot())
}
