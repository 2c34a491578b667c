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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/svdstat"
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

// writeError answers with the status an apiError carries. The two
// eigensolver failures come from the client's field, not the server: a
// non-finite value reaching the local-SVD eigensolve is a malformed
// input, so a 400, and a window whose eigenvalues did not converge
// within the solver's sweep budget is a well-formed field the
// statistic cannot be computed for, so a 422. Anything else is a 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, linalg.ErrNonFinite):
		status = http.StatusBadRequest
	case errors.Is(err, linalg.ErrNoConvergence):
		status = http.StatusUnprocessableEntity
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

// spoolMemLimit is the largest upload kept wholly in memory while
// spooling; bigger bodies spill to a temp file as they are hashed, and
// a waiting job holds that file, not the parsed field.
const spoolMemLimit = 1 << 20

// fieldSource is a request's resolved field payload: every payload,
// in RAM or on disk, on either lane, enters as a header-validated tile
// reader. digest is the SHA-256 of the payload bytes, computed while
// the body spools, so the content address never requires the parsed
// field, and a cache hit never parses it.
type fieldSource struct {
	digest []byte
	tr     *field.TileReader
	temp   string // spooled temp file to delete once tr is closed ("" for none)
	stream bool   // over the stream budget: analyze out of core
}

// close releases the reader, then the spooled temp file, if any.
func (src fieldSource) close() {
	src.tr.Close()
	if src.temp != "" {
		os.Remove(src.temp)
	}
}

// resolveField resolves the field of a request: the raw body (bounded
// by MaxBodyBytes) or a ?dataset=name reference into the server's data
// directory. With streamOK (an analyze request on a server with a
// StreamBudget), payloads over the budget are analyzed out of core —
// from the spooled temp file or the dataset file itself. Every header
// is validated before anything is allocated, against the element budget
// and against the bytes behind it, so a hostile request cannot make the
// server reserve more memory than the configured caps. (The element
// budget is derived from the float64 width for both lanes, so the
// guarantee holds regardless of which lane the header claims.)
func (s *Server) resolveField(w http.ResponseWriter, r *http.Request, streamOK bool) (fieldSource, error) {
	if name := r.URL.Query().Get("dataset"); name != "" {
		return s.datasetSource(name, streamOK)
	}
	return s.spoolBody(w, r, streamOK)
}

// datasetSource resolves ?dataset=name. Streaming datasets are hashed
// in place (one sequential read, no allocation) and may exceed
// MaxBodyBytes — the whole point of out-of-core analysis; in-RAM use
// keeps the cap and reads the very bytes it hashed.
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
		return s.fileSource(h.Sum(nil), p, st.Size(), true)
	}
	raw, err := io.ReadAll(io.TeeReader(f, h))
	if err != nil {
		return fieldSource{}, apiErrorf(http.StatusInternalServerError, "reading dataset %q: %v", name, err)
	}
	return s.memSource(h.Sum(nil), raw)
}

// spoolBody drains the request body through the content hasher into a
// memory buffer, spilling to a temp file past the spool limit (or past
// the stream budget, so anything that will stream lands on disk). The
// temp file lives until the spec's cleanup.
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
		return s.memSource(h.Sum(nil), buf.Bytes())
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
	size := n + m
	src, err := s.fileSource(h.Sum(nil), tmp.Name(), size, streamOK && size > s.cfg.StreamBudget)
	if err != nil {
		os.Remove(tmp.Name())
		return fieldSource{}, err
	}
	src.temp = tmp.Name()
	return src, nil
}

func badPayload(err error) error {
	return apiErrorf(http.StatusBadRequest, "bad field payload: %v", err)
}

// memSource reads an in-RAM payload in place: the reader serves the
// hashed bytes themselves.
func (s *Server) memSource(digest, raw []byte) (fieldSource, error) {
	tr, err := field.NewTileReader(bytes.NewReader(raw), int64(len(raw)), s.maxElements())
	if err != nil {
		return fieldSource{}, badPayload(err)
	}
	return fieldSource{digest: digest, tr: tr}, nil
}

// fileSource maps a spooled body or a dataset file. A payload that
// streams may hold more elements than MaxBodyBytes allows, so its
// element budget only guards header arithmetic: the reader rejects any
// header claiming more bytes than the file holds, so the file's own
// size is the real bound.
func (s *Server) fileSource(digest []byte, path string, size int64, stream bool) (fieldSource, error) {
	limit := s.maxElements()
	if stream {
		limit = int(size/4) + 16
	}
	tr, err := field.OpenTileReaderMapped(path, limit)
	if err != nil {
		return fieldSource{}, badPayload(err)
	}
	return fieldSource{digest: digest, tr: tr, stream: stream}, nil
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

// parseStatsSelection normalizes a ?stats= value: the run order is
// fixed by the registry regardless of spelling, so the sorted,
// deduplicated name set keeps spelling order from splitting the cache.
// Empty means every registered kernel; core.CheckAnalysis judges the
// names.
func parseStatsSelection(v string) ([]string, error) {
	if v == "" {
		return nil, nil
	}
	var names []string
	for _, part := range strings.Split(v, ",") {
		if name := strings.TrimSpace(part); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, "empty stats selection")
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}

// parseAnalysisOptions reads the analysis query parameters straight
// into core.AnalysisOptions, with the library's defaults spelled out so
// the cache canon does not depend on whether a request named them. It
// keeps only the rules the library does not have: query syntax, an
// explicit zero window or fraction (which the library would read as
// its default), and a negative maxlag. Every other rule on the options
// is core.CheckAnalysis's.
func parseAnalysisOptions(q url.Values) (core.AnalysisOptions, error) {
	o := core.AnalysisOptions{Window: core.DefaultWindow, VarianceFraction: svdstat.DefaultVarianceFraction}
	var err error
	if o.Window, err = queryInt(q, "window", o.Window); err != nil {
		return o, err
	}
	if o.Stats, err = parseStatsSelection(q.Get("stats")); err != nil {
		return o, err
	}
	if o.VariogramOpts.MaxLag, err = queryInt(q, "maxlag", 0); err != nil {
		return o, err
	}
	if o.VarianceFraction, err = queryFloat(q, "frac", o.VarianceFraction); err != nil {
		return o, err
	}
	if o.VariogramFFT, err = queryBool(q, "vfft", false); err != nil {
		return o, err
	}
	if o.SkipLocal, err = queryBool(q, "skiplocal", false); err != nil {
		return o, err
	}
	switch {
	case o.Window == 0:
		return o, apiErrorf(http.StatusBadRequest, "window must be nonzero; omit it for the default %d", core.DefaultWindow)
	case o.VarianceFraction == 0:
		return o, apiErrorf(http.StatusBadRequest, "frac must be nonzero; omit it for the default %v", svdstat.DefaultVarianceFraction)
	case o.VariogramOpts.MaxLag < 0:
		return o, apiErrorf(http.StatusBadRequest, "maxlag must be >= 0, got %d", o.VariogramOpts.MaxLag)
	}
	return o, nil
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
// pipeline run on the field behind tr before it is admitted: when the
// run computes the spectral global variogram it is
// core.SpectralPeakBytes, the same on either lane — one padded float64
// plane of Π_k FastLen(dim_k + L) elements plus the larger of its
// complex128 half-spectrum and the float64 summed-area table. Otherwise
// the working set is the windowed extraction's, bounded by the field
// itself — which the body cap already limits — so the prediction
// degenerates to the field bytes. o must carry the kind's final
// selection (predict overrides the client's).
func predictedPeakBytes(tr *field.TileReader, o core.AnalysisOptions) int64 {
	if peak := core.SpectralPeakBytes(tr.Shape(), o); peak > 0 {
		return peak
	}
	return tr.PayloadBytes()
}

// optionsCanon is the canonical string of the parsed options, part of
// the cache key, so two requests that spell the same options
// differently (e.g. ?vfft=1 vs ?vfft=true) address the same entry. The
// window and the variance fraction join it only when the analysis reads
// them (core.ReadsOptions), so predict, skiplocal and variogram-only
// requests that differ in them alone share an entry; a request that
// runs the local SVD keeps the canon it always had.
func optionsCanon(o core.AnalysisOptions) string {
	window, frac := core.ReadsOptions(o)
	c := ""
	if window {
		c = fmt.Sprintf("w=%d|", o.Window)
	}
	c += fmt.Sprintf("lag=%d|", o.VariogramOpts.MaxLag)
	if frac {
		c += "frac=" + fmtFloat(o.VarianceFraction) + "|"
	}
	c += fmt.Sprintf("vfft=%t|skip=%t", o.VariogramFFT, o.SkipLocal)
	// The selection joins the canon only when present, so every cache
	// key minted before the stats option existed stays valid.
	if len(o.Stats) > 0 {
		c += "|stats=" + strings.Join(o.Stats, ",")
	}
	return c
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

// buildSpec validates a request completely — options, field header,
// codec names — before any pipeline work, so every 4xx happens at
// submit time and an admitted job can only fail on compute errors.
// The spec's cleanup owns the field source: it closes the reader and
// removes any spooled temp file once the spec can never run again.
func (s *Server) buildSpec(kind string, w http.ResponseWriter, r *http.Request) (runSpec, error) {
	q := r.URL.Query()
	if kind == "predict" && q.Get("stat") != "" {
		// Stats-only prediction: no field payload to resolve — the body,
		// if any, is ignored.
		return s.buildStatPredictSpec(q)
	}
	src, err := s.resolveField(w, r, kind == "analyze" && s.cfg.StreamBudget > 0)
	if err != nil {
		return runSpec{}, err
	}
	spec, err := s.fieldSpec(kind, src, q)
	if err != nil {
		src.close()
		return runSpec{}, err
	}
	spec.cleanup = src.close
	return spec, nil
}

// fieldSpec builds every field-backed kind from the source's reader.
// A payload over the stream budget is analyzed out of core: the
// pipeline streams budget-sized tiles with the transform pool capped
// at Config.StreamBudget, and admission charges the budget itself. The
// windowed statistics are bit-identical to the in-RAM pipeline; the
// spectral global variogram is tolerance-equivalent (exact pair
// counts), so the stream budget joins the canonical option string to
// keep streamed and slurped spectral results at distinct content
// addresses. Every other payload is read whole on its stored lane when
// the run starts, so a float32 upload keeps its half-bandwidth pipeline
// end to end.
func (s *Server) fieldSpec(kind string, src fieldSource, q url.Values) (runSpec, error) {
	o, err := parseAnalysisOptions(q)
	if err != nil {
		return runSpec{}, err
	}
	// The client's own options, before predict overrides the selection.
	if err := core.CheckAnalysis(o); err != nil {
		return runSpec{}, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	tr := src.tr
	if err := validateMaxLag(o.VariogramOpts.MaxLag, tr.MinDim()); err != nil {
		return runSpec{}, err
	}
	o.Workers = s.cfg.Workers
	shape := tr.Shape()

	switch kind {
	case "analyze":
		canon := optionsCanon(o)
		peak := predictedPeakBytes(tr, o)
		if src.stream {
			o.MemBudget = s.cfg.StreamBudget
			canon += "|stream=" + strconv.FormatInt(s.cfg.StreamBudget, 10)
			peak = s.cfg.StreamBudget
		}
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, canon, src.digest),
			peakBytes: peak,
			run: func(ctx context.Context) (any, error) {
				stats, err := core.AnalyzeReaderCtx(ctx, tr, o)
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
			c, err := reg.GetFor(codec, tr.NDim())
			if err != nil {
				return runSpec{}, apiErrorf(http.StatusBadRequest, "%v", err)
			}
			sub := compress.NewRegistry()
			if err := sub.RegisterField(c); err != nil {
				return runSpec{}, err
			}
			reg = sub
		}
		canon := optionsCanon(o) + "|ebs=" + canonFloats(ebs) + "|codec=" + codec
		mOpts := core.MeasureOptions{Analysis: o, ErrorBounds: ebs, Workers: o.Workers}
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, canon, src.digest),
			peakBytes: predictedPeakBytes(tr, o),
			run: func(ctx context.Context) (any, error) {
				wide, narrow, err := tr.ReadAll()
				if err != nil {
					return nil, err
				}
				var ms []core.Measurement
				if narrow != nil {
					ms, err = core.MeasureFieldSetCtx(ctx, "request", []*field.Field32{narrow}, nil, reg, mOpts)
				} else {
					ms, err = core.MeasureFieldSetCtx(ctx, "request", []*field.Field{wide}, nil, reg, mOpts)
				}
				if err != nil {
					return nil, err
				}
				return measureResult{Shape: shape, Stats: ms[0].Stats, Results: ms[0].Results}, nil
			},
		}, nil

	case "predict":
		rank := tr.NDim()
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
		o.SkipLocal = true
		o.Stats = nil
		canon := fmt.Sprintf("%s|eb=%s|codec=%s|interval=%t|%s",
			optionsCanon(o), fmtFloat(eb), codec, interval, s.modelCanon(rank, eb))
		return runSpec{
			kind:      kind,
			key:       cacheKey(kind, canon, src.digest),
			peakBytes: predictedPeakBytes(tr, o),
			run: func(ctx context.Context) (any, error) {
				pred, modelKey, err := s.predictor(ctx, rank, eb)
				if err != nil {
					return nil, err
				}
				stats, err := core.AnalyzeReaderCtx(ctx, tr, o)
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

// ---- predictor training ------------------------------------------

// trainSeed fixes the synthetic training set, so the trained models —
// and through them /v1/predict responses — are reproducible across
// server restarts.
const trainSeed = 1

// trainEdge is the field edge of the training set of a rank.
func (s *Server) trainEdge(rank int) int {
	if rank == 3 {
		return s.cfg.TrainEdge3D
	}
	return s.cfg.TrainEdge2D
}

func (s *Server) trainCanon(rank int, eb float64) string {
	return fmt.Sprintf("train=%d|edge=%d|rank=%d|teb=%s", s.cfg.TrainFields, s.trainEdge(rank), rank, fmtFloat(eb))
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
	pred, _, err := core.TrainRangeLadder(ctx, core.TrainConfig{
		Rank: rank, Fields: s.cfg.TrainFields, Edge: s.trainEdge(rank), Seed: trainSeed,
		ErrorBound: eb, Workers: s.cfg.Workers,
	})
	return pred, err
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
