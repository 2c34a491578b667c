package service

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"lossycorr/internal/fft"
)

// JobState is the lifecycle of an async job:
// queued → running → done | failed | cancelled
// (a queued job can be cancelled without ever running).
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobInfo is the wire view of a job, returned by the status endpoint
// and embedded in submit/cancel responses.
type JobInfo struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Cached reports whether the result came from the content cache
	// without running the pipeline.
	Cached bool `json:"cached"`
	// PoolPeakBytes is the FFT buffer pool's peak while the job ran —
	// exact when the job was the only pipeline in flight, an upper
	// bound otherwise (the pool is process-global).
	PoolPeakBytes int64 `json:"poolPeakBytes,omitempty"`
	// PredictedPeakBytes is the transform-peak prediction admission
	// charged this job against Config.MemBudget (0 when the budget is
	// disabled).
	PredictedPeakBytes int64     `json:"predictedPeakBytes,omitempty"`
	ElapsedMs          float64   `json:"elapsedMs,omitempty"`
	SubmittedAt        time.Time `json:"submittedAt"`
	StartedAt          time.Time `json:"startedAt,omitzero"`
	FinishedAt         time.Time `json:"finishedAt,omitzero"`
}

type job struct {
	mu     sync.Mutex
	info   JobInfo
	spec   runSpec
	result any
	ctx    context.Context
	cancel context.CancelFunc
}

func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// errQueueFull is admission control's rejection; handlers map it to
// 429 Too Many Requests.
var errQueueFull = errors.New("service: job queue full")

// memBudgetError is memory admission's rejection: the job's predicted
// transform peak does not fit in what remains of Config.MemBudget.
// Handlers map it to 429 with the prediction in the body, so the
// client can shrink maxlag, drop to the float32 lane, or retry after
// the backlog drains.
type memBudgetError struct {
	predicted, reserved, budget int64
}

func (e *memBudgetError) Error() string {
	return fmt.Sprintf("service: predicted transform peak %d bytes does not fit the memory budget (%d of %d bytes already reserved)",
		e.predicted, e.reserved, e.budget)
}

func newJobID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// submitJob admits a job to the bounded queue, or rejects it without
// ever blocking the caller: errQueueFull when the queue channel's
// capacity is spent (so the number of pipelines waiting on the
// executor fan-out can never grow past Config.MaxQueue), and a
// memBudgetError when the job's predicted transform peak does not fit
// in what remains of Config.MemBudget across every admitted job.
func (s *Server) submitJob(spec runSpec) (*job, error) {
	j := &job{spec: spec}
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)
	j.info = JobInfo{ID: newJobID(), Kind: spec.kind, State: JobQueued, SubmittedAt: time.Now()}

	// Registration and the enqueue attempt happen under one hold of
	// jobMu: the send never blocks (admission is the channel's spare
	// capacity), and keeping the lock across it means the rejection
	// rollback truncates exactly the entry this call appended — with
	// the lock released in between, a concurrent submit could append
	// its own ID first and the truncation would orphan *that* job in
	// s.jobs, invisible to listing and never evicted. The memory
	// reservation lives under the same hold, so reserve + enqueue is
	// one atomic admission decision.
	s.jobMu.Lock()
	if b := s.cfg.MemBudget; b > 0 {
		if s.memReserved+spec.peakBytes > b {
			reserved := s.memReserved
			s.jobMu.Unlock()
			j.cancel()
			s.ctrRejected.Add(1)
			return nil, &memBudgetError{predicted: spec.peakBytes, reserved: reserved, budget: b}
		}
		s.memReserved += spec.peakBytes
		j.info.PredictedPeakBytes = spec.peakBytes
	}
	s.jobs[j.info.ID] = j
	s.order = append(s.order, j.info.ID)
	s.evictFinishedLocked()
	select {
	case s.queue <- j:
		s.jobMu.Unlock()
		s.ctrSubmitted.Add(1)
		return j, nil
	default:
		if s.cfg.MemBudget > 0 {
			s.memReserved -= spec.peakBytes
		}
		delete(s.jobs, j.info.ID)
		s.order = s.order[:len(s.order)-1]
		s.jobMu.Unlock()
		j.cancel()
		s.ctrRejected.Add(1)
		return nil, errQueueFull
	}
}

// releaseMem returns a job's admission reservation once its pipeline
// can no longer allocate (finished, failed, or drained after a
// pre-start cancellation). No-op when the budget is disabled, so the
// counter is only ever touched by the code path that reserved it.
func (s *Server) releaseMem(n int64) {
	if s.cfg.MemBudget <= 0 || n <= 0 {
		return
	}
	s.jobMu.Lock()
	s.memReserved -= n
	s.jobMu.Unlock()
}

func (s *Server) lookupJob(id string) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// evictFinishedLocked drops the oldest finished jobs beyond the
// retention bound so the job table cannot grow without limit. Live
// (queued/running) jobs are never evicted.
func (s *Server) evictFinishedLocked() {
	excess := len(s.order) - s.cfg.RetainedJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil {
			st := j.snapshot().State
			if st == JobDone || st == JobFailed || st == JobCancelled {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// executor is one job runner: it drains the queue until the server
// closes. Running Config.Executors of these bounds how many pipelines
// compete for the global worker-pool token budget at once.
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	reserved := j.spec.peakBytes
	if j.info.State != JobQueued { // cancelled while waiting
		spec := j.spec
		j.spec = runSpec{kind: j.spec.kind}
		j.mu.Unlock()
		spec.release()
		s.releaseMem(reserved)
		return
	}
	j.info.State = JobRunning
	j.info.StartedAt = time.Now()
	spec := j.spec
	j.mu.Unlock()

	val, cached, peak, err := s.execute(j.ctx, spec)
	spec.release()
	s.releaseMem(reserved)

	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel() // release the context's resources either way
	// Drop the spec once the run is over: its closure captures the
	// field's reader (up to MaxBodyBytes of payload bytes for an in-RAM
	// dataset), and with RetainedJobs finished jobs kept around for
	// polling, holding every spec would pin field data nobody can ever
	// use again.
	// Only the kind survives, for the status endpoint.
	j.spec = runSpec{kind: j.spec.kind}
	j.info.FinishedAt = now
	j.info.ElapsedMs = float64(now.Sub(j.info.StartedAt).Microseconds()) / 1e3
	j.info.PoolPeakBytes = peak
	j.info.Cached = cached
	switch {
	case err == nil:
		j.result = val
		j.info.State = JobDone
		s.ctrCompleted.Add(1)
	case j.ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.info.State = JobCancelled
		j.info.Error = err.Error()
		s.ctrCancelled.Add(1)
	default:
		j.info.State = JobFailed
		j.info.Error = err.Error()
		s.ctrFailed.Add(1)
	}
}

// execute runs a spec through the cache/singleflight layer while
// tracking the FFT buffer pool's peak. The peak baseline is reset when
// this is the only pipeline in flight, so an isolated job reports its
// exact transform working set; concurrent jobs share the process-wide
// pool and report an upper bound.
func (s *Server) execute(ctx context.Context, spec runSpec) (val any, cached bool, peak int64, err error) {
	if s.inFlight.Add(1) == 1 {
		fft.ResetPeakBytes()
	}
	defer s.inFlight.Add(-1)
	val, cached, err = s.runCached(ctx, spec)
	return val, cached, fft.PeakBytes(), err
}
