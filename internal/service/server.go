package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lossycorr/internal/fft"
	"lossycorr/internal/parallel"
	"lossycorr/internal/stat"
)

// Server is the corrcompd engine: the executor fan-out, the job table,
// the content-addressed result cache, and the HTTP handlers. Create
// with New, serve its Handler (or call Run), and Close it to stop the
// executors and cancel every running job.
type Server struct {
	cfg Config

	// Logf receives the periodic stats line and lifecycle messages from
	// Run; nil means silent. Set it before the first request.
	Logf func(format string, args ...any)

	cache   *resultCache
	flights flightGroup
	queue   chan *job

	// models indexes the predictors served by /v1/predict without
	// training: boot-loaded from Config.ModelDir, listed by
	// GET /v1/models. modelsLoaded/modelsFailed record the boot load
	// outcome for Run's startup log line.
	models       modelRegistry
	modelsLoaded int
	modelsFailed int

	rootCtx context.Context
	stop    context.CancelFunc
	execWG  sync.WaitGroup

	jobMu sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for finished-job eviction
	// memReserved sums the predicted transform peaks of admitted
	// (queued or running) jobs when Config.MemBudget is set; guarded by
	// jobMu so reserve + enqueue is one atomic admission decision.
	memReserved int64

	inFlight atomic.Int64

	// afterCacheMiss, when set, runs in runCached between a cache miss
	// and the flight group, so a test can interleave another request
	// there. Nil outside tests.
	afterCacheMiss func()

	ctrSubmitted, ctrRejected             atomic.Int64
	ctrCompleted, ctrFailed, ctrCancelled atomic.Int64
	ctrCacheHits, ctrFlightsJoined        atomic.Int64
	ctrAnalyzeRuns, ctrMeasureRuns        atomic.Int64
	ctrPredictRuns, ctrTrainRuns          atomic.Int64
}

// New builds a server from cfg (zero fields take defaults) and starts
// its executors.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		queue: make(chan *job, cfg.MaxQueue),
		jobs:  make(map[string]*job),
	}
	if cfg.ModelDir != "" {
		s.modelsLoaded, s.modelsFailed = s.models.loadModelDir(cfg.ModelDir)
	}
	s.rootCtx, s.stop = context.WithCancel(context.Background())
	for i := 0; i < cfg.Executors; i++ {
		s.execWG.Add(1)
		go s.executor()
	}
	return s
}

// Close stops the executors and cancels every running job's context;
// it returns once the executors have drained.
func (s *Server) Close() {
	s.stop()
	s.execWG.Wait()
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) countRun(kind string) {
	switch kind {
	case "analyze":
		s.ctrAnalyzeRuns.Add(1)
	case "measure":
		s.ctrMeasureRuns.Add(1)
	case "predict":
		s.ctrPredictRuns.Add(1)
	case "train":
		s.ctrTrainRuns.Add(1)
	}
}

// StatsSnapshot is the observability surface: admission and lifecycle
// counters, cache effectiveness, how often each pipeline actually ran
// (the probe the cache tests pin), and the process-global resource
// gauges — FFT pool peak and worker-pool token budget usage.
type StatsSnapshot struct {
	JobsSubmitted int64 `json:"jobsSubmitted"`
	JobsRejected  int64 `json:"jobsRejected"`
	JobsCompleted int64 `json:"jobsCompleted"`
	JobsFailed    int64 `json:"jobsFailed"`
	JobsCancelled int64 `json:"jobsCancelled"`
	QueueDepth    int   `json:"queueDepth"`
	InFlight      int64 `json:"inFlight"`

	CacheEntries  int   `json:"cacheEntries"`
	CacheHits     int64 `json:"cacheHits"`
	FlightsJoined int64 `json:"flightsJoined"`

	AnalyzeRuns int64 `json:"analyzeRuns"`
	MeasureRuns int64 `json:"measureRuns"`
	PredictRuns int64 `json:"predictRuns"`
	TrainRuns   int64 `json:"trainRuns"`

	PoolPeakBytes    int64 `json:"poolPeakBytes"`
	LiveExtraWorkers int64 `json:"liveExtraWorkers"`
	PeakExtraWorkers int64 `json:"peakExtraWorkers"`
	// MemReservedBytes sums the predicted transform peaks of admitted
	// async jobs (0 unless Config.MemBudget is set).
	MemReservedBytes int64 `json:"memReservedBytes"`

	// Kernels lists the registered statistic kernels — the names the
	// analyze/measure `stats` option accepts, each with its outputs and
	// capability flags — in registration order (the default run order).
	Kernels []KernelInfo `json:"kernels"`
}

// KernelInfo describes one registered statistic kernel: its selection
// name, the result keys it produces, and its capability surface.
type KernelInfo struct {
	Name      string   `json:"name"`
	Outputs   []string `json:"outputs"`
	Lanes     []string `json:"lanes"`
	Windowed  bool     `json:"windowed"`
	Streaming bool     `json:"streaming"`
	FFT       bool     `json:"fft"`
}

// kernelInfos snapshots the stat registry for GET /v1/stats.
func kernelInfos() []KernelInfo {
	ks := stat.Kernels()
	out := make([]KernelInfo, len(ks))
	for i, k := range ks {
		c := k.Caps()
		out[i] = KernelInfo{
			Name:      k.Name(),
			Outputs:   k.Outputs(),
			Lanes:     c.Lanes,
			Windowed:  c.Windowed,
			Streaming: c.Streaming,
			FFT:       c.FFT,
		}
	}
	return out
}

// Stats snapshots the counters. It is the machine-readable probe the
// test suite uses to prove cache hits (AnalyzeRuns stays put),
// singleflight dedup (FlightsJoined grows while AnalyzeRuns does not),
// and token-budget health after cancellations (LiveExtraWorkers
// returns to idle).
func (s *Server) Stats() StatsSnapshot {
	s.jobMu.Lock()
	memReserved := s.memReserved
	s.jobMu.Unlock()
	return StatsSnapshot{
		MemReservedBytes: memReserved,
		JobsSubmitted:    s.ctrSubmitted.Load(),
		JobsRejected:     s.ctrRejected.Load(),
		JobsCompleted:    s.ctrCompleted.Load(),
		JobsFailed:       s.ctrFailed.Load(),
		JobsCancelled:    s.ctrCancelled.Load(),
		QueueDepth:       len(s.queue),
		InFlight:         s.inFlight.Load(),

		CacheEntries:  s.cache.len(),
		CacheHits:     s.ctrCacheHits.Load(),
		FlightsJoined: s.ctrFlightsJoined.Load(),

		AnalyzeRuns: s.ctrAnalyzeRuns.Load(),
		MeasureRuns: s.ctrMeasureRuns.Load(),
		PredictRuns: s.ctrPredictRuns.Load(),
		TrainRuns:   s.ctrTrainRuns.Load(),

		PoolPeakBytes:    fft.PeakBytes(),
		LiveExtraWorkers: parallel.LiveExtraWorkers(),
		PeakExtraWorkers: parallel.PeakExtraWorkers(),

		Kernels: kernelInfos(),
	}
}

// Run serves HTTP on Config.Addr until ctx is cancelled or the server
// is closed, then shuts the listener down gracefully (in-flight
// responses get five seconds to finish; running jobs are cancelled by
// Close, not by Run). When Config.StatsPeriod > 0 a stats line is
// logged each period through Logf.
func (s *Server) Run(ctx context.Context) error {
	hs := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		select {
		case <-ctx.Done():
		case <-s.rootCtx.Done():
		}
		sd, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sd)
	}()
	if s.cfg.StatsPeriod > 0 {
		go func() {
			t := time.NewTicker(s.cfg.StatsPeriod)
			defer t.Stop()
			for {
				select {
				case <-stopped:
					return
				case <-t.C:
					st := s.Stats()
					s.logf("stats: submitted=%d completed=%d failed=%d cancelled=%d rejected=%d queue=%d inflight=%d cache=%d/%d hits=%d joined=%d runs(a/m/p/t)=%d/%d/%d/%d poolPeak=%dB workers(live/peak)=%d/%d",
						st.JobsSubmitted, st.JobsCompleted, st.JobsFailed, st.JobsCancelled, st.JobsRejected,
						st.QueueDepth, st.InFlight, st.CacheEntries, s.cfg.CacheEntries, st.CacheHits, st.FlightsJoined,
						st.AnalyzeRuns, st.MeasureRuns, st.PredictRuns, st.TrainRuns,
						st.PoolPeakBytes, st.LiveExtraWorkers, st.PeakExtraWorkers)
				}
			}
		}()
	}
	if s.cfg.ModelDir != "" {
		s.logf("models: loaded %d, failed %d from %s", s.modelsLoaded, s.modelsFailed, s.cfg.ModelDir)
	}
	s.logf("corrcompd listening on %s", s.cfg.Addr)
	err := hs.ListenAndServe()
	<-stopped
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
