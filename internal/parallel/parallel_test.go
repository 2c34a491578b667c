package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0, 100) = %d want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3, 100) = %d", got)
	}
	if got := Resolve(16, 4); got != 4 {
		t.Fatalf("Resolve(16, 4) = %d want 4 (clamped to jobs)", got)
	}
	if got := Resolve(16, 0); got != 16 {
		t.Fatalf("Resolve(16, 0) = %d want 16 (no clamp without job count)", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100, 1025} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSerialRunsInOrder(t *testing.T) {
	var got []int
	For(5, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial For out of order: %v", got)
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForErr(100, workers, func(i int) error {
			if i%10 == 7 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 7" {
			t.Fatalf("workers=%d: got %v want fail at 7", workers, err)
		}
	}
	if err := ForErr(50, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestForErrRunsEveryIndexDespiteFailures(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := ForErr(64, 8, func(i int) error {
		ran.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if ran.Load() != 64 {
		t.Fatalf("only %d of 64 indices ran", ran.Load())
	}
}

// TestStressConcurrentPools exercises many pools at once (the nested
// shape core.Analyze produces) so `go test -race` can see cross-pool
// interactions.
func TestStressConcurrentPools(t *testing.T) {
	var total atomic.Int64
	For(8, 8, func(outer int) {
		vs := make([]int64, 200)
		For(len(vs), 4, func(i int) { vs[i] = int64(i) })
		for _, v := range vs {
			total.Add(v)
		}
	})
	want := int64(8 * 199 * 200 / 2)
	if total.Load() != want {
		t.Fatalf("nested pools total %d want %d", total.Load(), want)
	}
}
