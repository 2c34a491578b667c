package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestNestedPoolsBounded drives the worst oversubscription shape the
// pipeline produces (a pool per field, a pool per statistic, a pool
// per window) and checks the global token budget holds: the number of
// extra workers alive at once never exceeds GOMAXPROCS-1.
func TestNestedPoolsBounded(t *testing.T) {
	For(16, 16, func(outer int) {
		For(8, 8, func(mid int) {
			For(64, 8, func(inner int) {
				_ = outer * mid * inner
			})
		})
	})
	max := int64(runtime.GOMAXPROCS(0) - 1)
	if max < 0 {
		max = 0
	}
	if got := PeakExtraWorkers(); got > max {
		t.Fatalf("peak extra workers %d exceeds budget %d", got, max)
	}
}

// TestNestedPoolsResultsUnchanged checks the semaphore is invisible in
// results: a nested float computation folds bit-identically whether it
// runs serially or with every pool asking for maximum parallelism.
func TestNestedPoolsResultsUnchanged(t *testing.T) {
	compute := func(workers int) []float64 {
		out := make([]float64, 12)
		For(len(out), workers, func(outer int) {
			vs := make([]float64, 300)
			For(len(vs), workers, func(i int) { vs[i] = 1.0 / float64(outer*300+i+1) })
			for _, v := range vs {
				out[outer] += v
			}
		})
		return out
	}
	ref := compute(1)
	for _, w := range []int{2, 8, 64} {
		got := compute(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %x want %x", w, i, got[i], ref[i])
			}
		}
	}
}

// TestForCallerAlwaysProgresses exhausts the token budget with blocked
// holders and checks a new pool still completes on its caller alone.
func TestForCallerAlwaysProgresses(t *testing.T) {
	n := cap(tokens)
	for i := 0; i < n; i++ {
		tokens <- struct{}{}
	}
	defer func() {
		for i := 0; i < n; i++ {
			<-tokens
		}
	}()
	var hits atomic.Int64
	done := make(chan struct{})
	go func() {
		For(100, 8, func(i int) { hits.Add(1) })
		close(done)
	}()
	<-done
	if hits.Load() != 100 {
		t.Fatalf("ran %d of 100 indices with budget exhausted", hits.Load())
	}
}
