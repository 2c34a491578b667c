package fft

// The buffer pools bucket reusable slices by capacity so the repeated
// large scratch buffers of the variogram FFT engine and the samplers
// are recycled instead of re-allocated per call. Each element type has
// its own bucket array; the live/peak byte accounting is shared, so
// PeakBytes sums checked-out bytes across all three element types. The
// transforms draw complex128 spectra and float64 planes; float32 slots
// serve the streamed sampled variogram's index scratch.
//
// Bucket contract: bucket b holds buffers whose capacity lies in
// [2^b, 2^(b+1)) — Release files by floor(log2(cap)), so buffers with
// non-power-of-two capacities (exact-size allocations such as
// mixed-radix line scratch and padded planes, re-sliced tails) are
// retained rather than dropped. Acquire first pops the ceil(log2(n))
// bucket, whose buffers all fit by construction, then searches the
// floor bucket below it with an explicit fit check (setting aside, and
// afterwards returning, every too-small buffer it pops on the way), and
// only then allocates — at exactly the requested length, not the next
// power of two, so a half-spectrum never drags a 2× capacity behind it
// and a re-acquired same-size buffer is found one bucket down.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Elem is an element type the buffer pools hold.
type Elem interface{ complex128 | float64 | float32 }

var pools [3][64]sync.Pool // complex128, float64, float32

// laneOf returns E's bucket array and element size in bytes.
func laneOf[E Elem]() (*[64]sync.Pool, int64) {
	switch any((*E)(nil)).(type) {
	case *complex128:
		return &pools[0], 16
	case *float64:
		return &pools[1], 8
	default:
		return &pools[2], 4
	}
}

// Live/peak accounting of acquired (checked-out) pool bytes. This is
// the transform-buffer working set of whatever engine is running — the
// number the memory smoke tests and the bench gauges report.
var (
	poolLiveBytes atomic.Int64
	poolPeakBytes atomic.Int64
)

func accountAcquire(bytes int64) {
	l := poolLiveBytes.Add(bytes)
	for {
		p := poolPeakBytes.Load()
		if l <= p || poolPeakBytes.CompareAndSwap(p, l) {
			return
		}
	}
}

// ResetPeakBytes restarts the high-water mark of checked-out pool
// bytes at the current live level.
func ResetPeakBytes() { poolPeakBytes.Store(poolLiveBytes.Load()) }

// PeakBytes returns the high-water mark of simultaneously checked-out
// pool bytes (all element types) since the last ResetPeakBytes.
func PeakBytes() int64 { return poolPeakBytes.Load() }

// LiveBytes returns the currently checked-out pool bytes.
func LiveBytes() int64 { return poolLiveBytes.Load() }

// acquireBucket is ceil(log2(n)): every buffer filed in this bucket has
// capacity >= 2^bucket >= n.
func acquireBucket(n int) int { return bits.Len(uint(n - 1)) }

// releaseBucket is floor(log2(c)): the largest bucket whose fit
// guarantee capacity c can honor.
func releaseBucket(c int) int { return bits.Len(uint(c)) - 1 }

// Acquire returns a buffer of length n (contents unspecified) from the
// pool, allocating an exact-size one on miss. Release it when done.
func Acquire[E Elem](n int) []E { return acquire[E](n, false) }

// AcquireTight is Acquire for budget-critical consumers: a pooled
// buffer is accepted only when its capacity is at most 2n, so the
// cap-based accounting of a tight acquisition never exceeds twice the
// requested bytes (a plain acquire can carry up to ~4× from bucket
// slack; a miss allocates exactly n either way). The streaming analysis
// plans its tiles, spans, chunks and shards against TightShare of the
// memory budget; together the two factors keep the peak gauge under the
// budget even on a warm pool. Release as usual.
func AcquireTight[E Elem](n int) []E { return acquire[E](n, true) }

// TightShare is the part of a byte budget that a consumer of tight
// acquisitions plans against: half, because AcquireTight can hand back
// up to twice the requested length from a warm pool.
func TightShare(budgetBytes int64) int64 { return budgetBytes / 2 }

func acquire[E Elem](n int, tight bool) []E {
	if n <= 0 {
		return nil
	}
	pool, size := laneOf[E]()
	b := acquireBucket(n)
	maxCap := math.MaxInt
	if tight {
		maxCap = 2 * n
	}
	p := take[E](&pool[b], n, maxCap)
	if p == nil && b > 0 { // one-below caps are < 2^b <= 2n by construction
		p = take[E](&pool[b-1], n, maxCap)
	}
	if p == nil {
		buf := make([]E, n)
		p = &buf
	}
	accountAcquire(int64(cap(*p)) * size)
	return (*p)[:n]
}

// take pops buffers from bucket until one has a capacity in
// [minCap, maxCap], puts the others back in the reverse of the order it
// popped them, and returns that buffer, or nil once the bucket is
// empty. sync.Pool hands out its most recent Put first, so a misfit
// put straight back would be popped again by the next probe and hide
// every buffer below it.
func take[E Elem](bucket *sync.Pool, minCap, maxCap int) *[]E {
	var fit *[]E
	var misfits []*[]E
	for fit == nil {
		v := bucket.Get()
		if v == nil {
			break
		}
		p := v.(*[]E)
		if c := cap(*p); c >= minCap && c <= maxCap {
			fit = p
		} else {
			misfits = append(misfits, p)
		}
	}
	for i := len(misfits) - 1; i >= 0; i-- {
		bucket.Put(misfits[i])
	}
	return fit
}

// Release returns a buffer obtained from Acquire or AcquireTight to
// the pool. Buffers of any capacity are accepted (non-power-of-two
// capacities are filed by floor(log2(cap)) and keep serving smaller
// requests). The caller must not use the slice afterwards.
func Release[E Elem](buf []E) {
	c := cap(buf)
	if c == 0 {
		return
	}
	pool, size := laneOf[E]()
	poolLiveBytes.Add(-int64(c) * size)
	buf = buf[:c]
	pool[releaseBucket(c)].Put(&buf)
}
