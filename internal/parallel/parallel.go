// Package parallel is the shared execution engine behind every
// windowed statistic and batch measurement in lossycorr: a bounded
// worker pool with chunked index scheduling and strictly deterministic
// result ordering.
//
// The determinism contract is the important part. Callers hand in an
// index space [0, n) and a pure-per-index function; the pool may run
// indices in any order and on any goroutine, but results are always
// collected (Map) or folded (MapReduce) in index order, and errors are
// always reported for the lowest failing index (ForErr). Consequently a
// computation that is deterministic per index is bit-identical at
// Workers: 1 and Workers: N — the property the statistics layer's
// seeded experiments rely on.
//
// Scheduling uses an atomic chunk counter rather than one channel send
// per index: workers grab contiguous chunks of ~n/(workers·chunksPer)
// indices, which keeps windows of a tiled field cache-adjacent and
// makes the per-index overhead negligible even for sub-microsecond
// bodies.
//
// Total concurrency is bounded globally, not per pool. Pools nest
// (MeasureFieldSet fans fields out, each field's analysis fans statistics
// out, each statistic fans windows out), so per-pool worker counts
// would multiply. Instead, every pool runs its loop on the calling
// goroutine and spawns extra workers only while tokens are available
// from a shared GOMAXPROCS-sized budget. Extra workers are acquired
// with a non-blocking try, never a wait, so nesting can't deadlock and
// the number of goroutines executing loop bodies never exceeds
// GOMAXPROCS plus the callers already in flight. Because results are
// position-addressed and folds run in index order, the dynamic worker
// count is invisible in the output.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker controls scheduling granularity: each worker expects
// to grab about this many chunks over a full run, balancing load (more
// chunks) against contention on the shared counter (fewer chunks).
const chunksPerWorker = 8

// tokens is the global budget of extra worker goroutines, shared by
// every pool in the process. Sized to GOMAXPROCS-1 so that one calling
// goroutine plus a full complement of extras saturates the machine
// without oversubscribing it.
var tokens = func() chan struct{} {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 0 {
		n = 0
	}
	return make(chan struct{}, n)
}()

// live and peak track the number of extra workers currently running,
// and the high-water mark, for tests and diagnostics.
var live, peak atomic.Int64

// acquireToken claims an extra-worker slot if the global budget allows
// it; it never blocks.
func acquireToken() bool {
	select {
	case tokens <- struct{}{}:
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return true
	default:
		return false
	}
}

func releaseToken() {
	live.Add(-1)
	<-tokens
}

// PeakExtraWorkers reports the historical maximum number of extra
// worker goroutines alive at once — by construction at most
// GOMAXPROCS-1 at the time they were spawned.
func PeakExtraWorkers() int64 { return peak.Load() }

// LiveExtraWorkers reports the number of extra worker goroutines
// currently holding a token from the global budget. After every
// For/ForCtx call has returned, a quiescent process reports 0 — the
// invariant the service layer's cancellation tests pin to prove that
// cancelled pipelines give their tokens back.
func LiveExtraWorkers() int64 { return live.Load() }

// Resolve maps a Workers knob to an effective worker count: values <= 0
// mean GOMAXPROCS, and the count is clamped to jobs so tiny index
// spaces don't spawn idle goroutines.
func Resolve(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(i) exactly once for every i in [0, n). The loop always
// runs on the calling goroutine; up to workers-1 extra goroutines join
// it while the process-wide token budget (GOMAXPROCS-1 extras, shared
// across nested pools) allows, so total concurrency stays bounded no
// matter how pools nest. workers <= 0 means GOMAXPROCS; with one
// worker it degenerates to a plain serial loop on the calling
// goroutine. Invocation order is unspecified; fn must write any
// results to per-index storage.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	run := func() {
		for {
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w-1; g++ {
		if !acquireToken() {
			break // global budget exhausted: the caller still makes progress
		}
		wg.Add(1)
		go func() {
			defer func() {
				releaseToken()
				wg.Done()
			}()
			run()
		}()
	}
	run()
	wg.Wait()
}

// ForCtx is For with cooperative cancellation: the loop stops
// scheduling new indices as soon as ctx is cancelled and returns
// ctx.Err() (nil while ctx stays live; a run that races completion
// with cancellation may report the error even though every index
// ran — callers treat any non-nil return as abandoned work).
// Cancellation is checked before
// every index, so the call returns within roughly one loop-body
// duration of the cancel no matter how large n is; indices already in
// flight on other workers finish their current body before the workers
// exit, and every extra worker returns its token to the global budget
// before ForCtx returns (pinned by TestForCtxCancelReleasesTokens).
// Results written for indices that did run are valid; a non-nil error
// means an unspecified subset of indices never executed, so callers
// must treat the output as abandoned.
//
// A nil ctx, or one that can never be cancelled, takes the exact For
// fast path — no per-index check, bit-identical scheduling.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		For(n, workers, fn)
		return nil
	}
	done := ctx.Done()
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i)
		}
		return ctx.Err()
	}
	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	run := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w-1; g++ {
		if !acquireToken() {
			break // global budget exhausted: the caller still makes progress
		}
		wg.Add(1)
		go func() {
			defer func() {
				releaseToken()
				wg.Done()
			}()
			run()
		}()
	}
	run()
	wg.Wait()
	return ctx.Err()
}

// ForErrCtx is ForErr with cooperative cancellation. Cancellation
// dominates body errors: once ctx is cancelled the index space is
// abandoned mid-flight, so the deterministic lowest-failing-index
// contract no longer applies and ctx.Err() is returned instead.
func ForErrCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	var mu sync.Mutex
	lowest := n
	var lowestErr error
	if err := ForCtx(ctx, n, workers, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < lowest {
				lowest, lowestErr = i, err
			}
			mu.Unlock()
		}
	}); err != nil {
		return err
	}
	return lowestErr
}

// ForErr is For over a fallible body. Every index runs (no early
// cancellation, matching a serial loop that records the first error and
// keeps going); the returned error is the one from the lowest failing
// index, so the outcome is deterministic regardless of scheduling.
func ForErr(n, workers int, fn func(i int) error) error {
	var mu sync.Mutex
	lowest := n
	var lowestErr error
	For(n, workers, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < lowest {
				lowest, lowestErr = i, err
			}
			mu.Unlock()
		}
	})
	return lowestErr
}

// Map evaluates fn over [0, n) and returns the results in index order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapReduce evaluates mapFn over [0, n) in parallel, then folds the
// results serially in strict index order: acc = reduceFn(acc, v_0, 0),
// then v_1, and so on. Because the fold order is fixed, floating-point
// reductions are bit-identical for any worker count.
func MapReduce[T, R any](n, workers int, mapFn func(i int) T, init R, reduceFn func(acc R, v T, i int) R) R {
	vs := Map(n, workers, mapFn)
	acc := init
	for i, v := range vs {
		acc = reduceFn(acc, v, i)
	}
	return acc
}

// Do runs a fixed set of heterogeneous tasks on the pool — the
// orchestration-layer shape where a handful of independent statistics
// are computed concurrently. With workers == 1 the tasks run serially
// in argument order.
func Do(workers int, fns ...func()) {
	For(len(fns), workers, func(i int) { fns[i]() })
}
