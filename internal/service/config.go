// Package service turns the analysis library into
// analysis-as-a-service: a long-running HTTP server (corrcompd) that
// exposes analyze / measure / predict over fields uploaded in the
// binary formats the field package auto-detects, or referenced from a
// server-side dataset directory.
//
// Three mechanisms make the server safe to share:
//
//   - an async job queue with bounded admission (submissions beyond
//     the queue capacity are rejected with 429 instead of piling
//     goroutines on the global worker-pool token budget), a fixed
//     executor fan-out, job-status polling, and per-job cancellation;
//
//   - a content-addressed result cache keyed by SHA-256 over the kind,
//     the canonicalized options, and the raw field bytes — the worker
//     count is deliberately not part of the key because every pipeline
//     result is bit-identical at any worker count — with singleflight
//     deduplication so N concurrent identical requests run the
//     pipeline once;
//
//   - context.Context threaded from the HTTP request (or the job's
//     cancel handle) through core into the variogram / SVD / sampling
//     parallel loops, so a disconnected client or a DELETEd job stops
//     computing within one unit of work and returns its pool tokens.
package service

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// Config is corrcompd's knob set. Every field has an environment
// variable (read by FromEnv) so the server configures the same way in
// a shell, a unit file, or a container.
type Config struct {
	// Addr is the listen address. Env CORRCOMPD_ADDR; default ":8080".
	Addr string
	// MaxBodyBytes caps uploaded request bodies and server-side dataset
	// files; it also derives the element budget handed to the field
	// reader, so a hostile header can never allocate more than the body
	// cap. Env CORRCOMPD_MAX_BODY_BYTES; default 256 MiB.
	MaxBodyBytes int64
	// MaxQueue bounds admission: at most this many jobs wait for an
	// executor; further submissions get 429. Env CORRCOMPD_MAX_QUEUE;
	// default 64.
	MaxQueue int
	// MemBudget caps the summed predicted transform peak of admitted
	// async jobs (variogram.FFTPeakBytes at the lane's width for vfft
	// jobs, the field bytes otherwise): a submission whose prediction
	// does not fit in the remaining budget is rejected with 429 and the
	// prediction in the response body, so a client can shrink maxlag or
	// split the field instead of OOMing the server. 0 disables the
	// check. Env CORRCOMPD_MEM_BUDGET (bytes).
	MemBudget int64
	// StreamBudget turns on out-of-core analysis: analyze requests
	// whose payload exceeds this many bytes run through the
	// tile-streaming reader with the transform pool capped at the
	// budget instead of slurping the field into RAM. Dataset references
	// larger than MaxBodyBytes are admitted on this path (uploads stay
	// bounded by the body cap, which is a transport limit). 0 disables
	// streaming. Env CORRCOMPD_STREAM_BUDGET (bytes).
	StreamBudget int64
	// Executors is the number of concurrent job runners. Each runner
	// drives one pipeline whose inner parallelism draws from the global
	// worker-pool token budget, so a small executor count keeps the
	// budget from being split too thin. Env CORRCOMPD_EXECUTORS;
	// default 2.
	Executors int
	// CacheEntries bounds the content-addressed result cache (LRU by
	// entry count; entries are results and trained predictors, both
	// small next to the fields they summarize).
	// Env CORRCOMPD_CACHE_ENTRIES; default 128.
	CacheEntries int
	// RetainedJobs bounds the finished-job history kept for polling.
	// Env CORRCOMPD_RETAINED_JOBS; default 256.
	RetainedJobs int
	// DataDir is the server-side dataset directory for ?dataset=name
	// references; empty disables the feature. Env CORRCOMPD_DATA_DIR.
	DataDir string
	// ModelDir is a directory of persisted predictor models
	// (lossycorr-model/v1 JSON, written by corrcomp predict -save or
	// core.SavePredictor). Every *.json file is loaded at boot and
	// served by /v1/predict without training, so a fleet can answer
	// predictions in microseconds from a shared model artifact. Files
	// that fail to load are reported in GET /v1/models (the server
	// still boots). Empty disables the feature.
	// Env CORRCOMPD_MODEL_DIR.
	ModelDir string
	// StatsPeriod is the interval of the periodic stats log line in
	// Run; 0 disables it. Env CORRCOMPD_STATS_PERIOD (Go duration);
	// default 1m.
	StatsPeriod time.Duration
	// Workers sizes the per-pipeline worker pools (0 = GOMAXPROCS).
	// Not part of any cache key: results are bit-identical at every
	// worker count. Env CORRCOMPD_WORKERS.
	Workers int
	// TrainFields / TrainEdge2D / TrainEdge3D size the synthetic
	// Gaussian training set behind /v1/predict (one predictor per
	// (rank, error bound), trained lazily and cached). Envs
	// CORRCOMPD_TRAIN_FIELDS, CORRCOMPD_TRAIN_EDGE2D,
	// CORRCOMPD_TRAIN_EDGE3D; defaults 6, 128, 24 — the corrcomp
	// predict subcommand's defaults.
	TrainFields int
	TrainEdge2D int
	TrainEdge3D int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RetainedJobs <= 0 {
		c.RetainedJobs = 256
	}
	if c.StatsPeriod < 0 {
		c.StatsPeriod = 0
	}
	if c.TrainFields <= 0 {
		c.TrainFields = 6
	}
	if c.TrainEdge2D <= 0 {
		c.TrainEdge2D = 128
	}
	if c.TrainEdge3D <= 0 {
		c.TrainEdge3D = 24
	}
	return c
}

// FromEnv builds a Config from CORRCOMPD_* variables looked up through
// getenv (missing or empty values keep the defaults). A value that is
// present but unparsable is an error rather than a silent fallback.
func FromEnv(getenv func(string) string) (Config, error) {
	var c Config
	c.Addr = getenv("CORRCOMPD_ADDR")
	c.DataDir = getenv("CORRCOMPD_DATA_DIR")
	c.ModelDir = getenv("CORRCOMPD_MODEL_DIR")
	for _, v := range []struct {
		name string
		dst  *int
	}{
		{"CORRCOMPD_MAX_QUEUE", &c.MaxQueue},
		{"CORRCOMPD_EXECUTORS", &c.Executors},
		{"CORRCOMPD_CACHE_ENTRIES", &c.CacheEntries},
		{"CORRCOMPD_RETAINED_JOBS", &c.RetainedJobs},
		{"CORRCOMPD_WORKERS", &c.Workers},
		{"CORRCOMPD_TRAIN_FIELDS", &c.TrainFields},
		{"CORRCOMPD_TRAIN_EDGE2D", &c.TrainEdge2D},
		{"CORRCOMPD_TRAIN_EDGE3D", &c.TrainEdge3D},
	} {
		s := getenv(v.name)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return c, fmt.Errorf("service: %s=%q: %v", v.name, s, err)
		}
		*v.dst = n
	}
	if s := getenv("CORRCOMPD_MAX_BODY_BYTES"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return c, fmt.Errorf("service: CORRCOMPD_MAX_BODY_BYTES=%q: %v", s, err)
		}
		c.MaxBodyBytes = n
	}
	if s := getenv("CORRCOMPD_MEM_BUDGET"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return c, fmt.Errorf("service: CORRCOMPD_MEM_BUDGET=%q: %v", s, err)
		}
		c.MemBudget = n
	}
	if s := getenv("CORRCOMPD_STREAM_BUDGET"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return c, fmt.Errorf("service: CORRCOMPD_STREAM_BUDGET=%q: %v", s, err)
		}
		c.StreamBudget = n
	}
	if s := getenv("CORRCOMPD_STATS_PERIOD"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return c, fmt.Errorf("service: CORRCOMPD_STATS_PERIOD=%q: %v", s, err)
		}
		c.StatsPeriod = d
	}
	return c, nil
}

// ConfigFromEnv is FromEnv over the process environment.
func ConfigFromEnv() (Config, error) { return FromEnv(os.Getenv) }
