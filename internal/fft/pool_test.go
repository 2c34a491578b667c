package fft

import "testing"

// TestPoolAcceptsNonPow2Caps pins the release contract on every
// element type: buffers whose capacity is not a power of two
// (exact-size allocations, re-sliced tails) are filed by
// floor(log2(cap)) instead of being dropped, keep serving any request
// up to the bucket's lower bound, and a released exact-size buffer is
// found again by a same-size acquire.
func TestPoolAcceptsNonPow2Caps(t *testing.T) {
	t.Run("complex128", checkRetention[complex128])
	t.Run("float64", checkRetention[float64])
	t.Run("float32", checkRetention[float32])
}

func checkRetention[E Elem](t *testing.T) {
	pool, _ := laneOf[E]()
	// cap 768 lands in bucket 9 ([512, 1024)) and must serve n <= 512.
	// sync.Pool randomly drops Puts under the race detector, so allow a
	// few attempts before declaring the buffer lost.
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		for pool[9].Get() != nil {
		}
		Release(make([]E, 768))
		got := Acquire[E](500)
		reused = cap(got) == 768
		if reused {
			Release(got)
		}
	}
	if !reused {
		t.Fatal("non-pow2 released buffer was never reused")
	}

	// A request larger than a bucket's guarantee must never receive a
	// buffer that cannot hold it: n=769 looks in bucket 10, not 9.
	Release(make([]E, 768))
	big := Acquire[E](769)
	if cap(big) < 769 {
		t.Fatalf("acquired buffer too small: cap %d for n=769", cap(big))
	}
	Release(big)

	// A same-size acquire finds an exact-size release one bucket down.
	reused = false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		r := Acquire[E](600 * 600)
		p := &r[0]
		Release(r)
		r2 := Acquire[E](600 * 600)
		reused = &r2[0] == p
		Release(r2)
	}
	if !reused {
		t.Fatal("released buffer not reused by same-size acquire")
	}
}

// TestPoolPeakBytes checks the live/peak accounting of checked-out
// buffers that the memory smoke tests and bench gauges read: every
// element type charges its size on the shared scale.
func TestPoolPeakBytes(t *testing.T) {
	base := LiveBytes()
	ResetPeakBytes()
	c128 := Acquire[complex128](1000)
	f64 := Acquire[float64](1000)
	f32 := Acquire[float32](1000)
	wantLive := int64(cap(c128))*16 + int64(cap(f64))*8 + int64(cap(f32))*4
	if got := LiveBytes() - base; got != wantLive {
		t.Fatalf("live %d, want %d", got, wantLive)
	}
	Release(c128)
	Release(f64)
	Release(f32)
	if got := LiveBytes(); got != base {
		t.Fatalf("live after release %d, want %d", got, base)
	}
	if peak := PeakBytes() - base; peak < wantLive {
		t.Fatalf("peak %d, want >= %d", peak, wantLive)
	}
	ResetPeakBytes()
	if peak := PeakBytes(); peak != LiveBytes() {
		t.Fatalf("peak after reset %d, want live %d", peak, LiveBytes())
	}
}

// TestPool32Accounting checks the float32 slots' accounting through
// AcquireTight, the path the budgeted streaming consumers use: a
// pooled buffer more than twice the request is passed over, so the
// charge stays within 2n elements, and releasing returns the live
// level to where it started.
func TestPool32Accounting(t *testing.T) {
	// cap 1023 is filed in bucket 9 ([512, 1024)), the bucket a
	// 300-element request looks in first; it is too slack to hand out.
	// Seeding the pool with never-acquired buffers debits the live
	// level, so the baseline is read afterwards.
	Release(make([]float32, 1023))
	base := LiveBytes()
	ResetPeakBytes()
	r := AcquireTight[float32](300)
	if len(r) != 300 || cap(r) > 600 {
		t.Fatalf("tight acquire: float32 len %d cap %d, want len 300 cap <= 600", len(r), cap(r))
	}
	want := int64(cap(r)) * 4
	if live := LiveBytes() - base; live != want {
		t.Fatalf("live bytes %d, want %d", live, want)
	}
	Release(r)
	if LiveBytes() != base {
		t.Fatalf("live bytes %d after release, want %d", LiveBytes(), base)
	}
	if peak := PeakBytes() - base; peak < want {
		t.Fatalf("peak bytes %d, want >= %d", peak, want)
	}
}
