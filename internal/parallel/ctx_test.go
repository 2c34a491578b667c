package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxNilAndBackground pins the fast path: contexts that can
// never be cancelled behave exactly like For and report nil.
func TestForCtxNilAndBackground(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var sum atomic.Int64
		if err := ForCtx(ctx, 100, 4, func(i int) { sum.Add(int64(i)) }); err != nil {
			t.Fatalf("ForCtx(%v) = %v, want nil", ctx, err)
		}
		if got := sum.Load(); got != 4950 {
			t.Fatalf("sum = %d, want 4950", got)
		}
	}
}

// TestForCtxRunsEveryIndex checks a live context executes the full
// index space once per index, like For.
func TestForCtxRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		seen := make([]atomic.Int32, 1000)
		ctx, cancel := context.WithCancel(context.Background())
		if err := ForCtx(ctx, len(seen), workers, func(i int) { seen[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		cancel()
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForCtxCancelReleasesTokens is the regression test for the
// cancellation semantics: a ForCtx over a deliberately slow body must
// return promptly once the context is cancelled — not after the full
// index space — and every extra worker must have returned its token to
// the global budget by the time the call returns.
func TestForCtxCancelReleasesTokens(t *testing.T) {
	const (
		n        = 10_000
		body     = 2 * time.Millisecond
		cancelAt = 20 * time.Millisecond
	)
	for _, workers := range []int{1, 0} { // serial path and full fan-out
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := LiveExtraWorkers()
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(cancelAt, cancel)
			var ran atomic.Int64
			start := time.Now()
			err := ForCtx(ctx, n, workers, func(i int) {
				ran.Add(1)
				time.Sleep(body)
			})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Serially the loop would take n·body = 20 s. Prompt return
			// means roughly cancelAt plus one in-flight body per worker;
			// 2 s is orders of magnitude of headroom without flaking.
			if elapsed > 2*time.Second {
				t.Fatalf("ForCtx returned after %v, want prompt return near %v", elapsed, cancelAt)
			}
			if got := ran.Load(); got == 0 || got >= n {
				t.Fatalf("ran %d bodies, want 0 < ran < %d (cancelled mid-flight)", got, n)
			}
			// The call's own workers must have drained: the live count is
			// back to what other concurrently running tests held.
			if after := LiveExtraWorkers(); after > before {
				t.Fatalf("live extra workers %d > %d before the call: leaked tokens", after, before)
			}
		})
	}
}

// TestForCtxTokensReusableAfterCancel proves the budget is intact
// after a cancellation: a follow-up parallel run can still acquire
// extra workers (nothing was leaked out of the tokens channel).
func TestForCtxTokensReusableAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: ForCtx must return immediately
	if err := ForCtx(ctx, 1000, 0, func(i int) { time.Sleep(time.Millisecond) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ran atomic.Int64
	For(1000, 0, func(i int) { ran.Add(1) })
	if ran.Load() != 1000 {
		t.Fatalf("post-cancel For ran %d/1000 bodies", ran.Load())
	}
	if LiveExtraWorkers() < 0 {
		t.Fatalf("negative live worker count: unbalanced release")
	}
}

// TestForErrCtxCancellationDominates pins the error precedence: once
// cancelled, the ctx error is reported even when loop bodies also
// failed (the lowest-index contract only holds for completed runs).
func TestForErrCtxCancellationDominates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bodyErr := errors.New("body")
	var once atomic.Bool
	err := ForErrCtx(ctx, 1000, 2, func(i int) error {
		if once.CompareAndSwap(false, true) {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return bodyErr
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForErrCtxBodyErrors checks the completed-run path still reports
// the lowest failing index deterministically.
func TestForErrCtxBodyErrors(t *testing.T) {
	wantErr := errors.New("idx")
	err := ForErrCtx(context.Background(), 100, 4, func(i int) error {
		if i == 17 || i == 63 {
			return fmt.Errorf("%w %d", wantErr, i)
		}
		return nil
	})
	if err == nil || err.Error() != "idx 17" {
		t.Fatalf("err = %v, want idx 17", err)
	}
}
