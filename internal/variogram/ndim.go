package variogram

// Rank-generic variogram engine. The exact scan enumerates lag vectors
// in a canonical half-space order (first nonzero component positive, so
// each unordered pair counts once) and groups them by distance bin. For
// rank 2 and rank 3 the enumeration visits exactly the offsets, in
// exactly the order, of the historical nested-loop scans, and each
// bin's accumulation is one left-to-right chain over its offsets'
// pairs — so the generic scan is bit-identical to the legacy 2D and 3D
// implementations.
//
// Bins are independent accumulators, which makes them the parallel
// axis: workers own whole bins, so the per-bin chains (and therefore
// the result) are unchanged at any worker count. This is also what
// finally parallelizes the global exact scan, previously the one
// serial stage of the analysis.

import (
	"context"
	"math"
	"sync"

	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
	"lossycorr/internal/xrand"
)

// exactThresholdFor is the element count below which the exhaustive
// scan is used by default, preserving the historical per-rank cutoffs.
func exactThresholdFor(ndim int) int {
	if ndim == 3 {
		return 24 * 24 * 24
	}
	return 64 * 64
}

// sampleSalt decorrelates the pair sampler from other seed consumers,
// preserving the historical per-rank constants.
func sampleSalt(ndim int) uint64 {
	switch ndim {
	case 3:
		return 0x3d3d3d3d3d3d3d3d
	default:
		return 0x5eed5eed5eed5eed
	}
}

// scanData runs the chosen estimator over an in-RAM lane; mean supplies
// the field mean the spectral engine's embed subtracts.
func scanData[T field.Elem](ctx context.Context, data []T, shape []int, mean func() float64, est estimator, o Options) (*Empirical, error) {
	switch est {
	case spectral:
		return fftScan(ctx, data, shape, mean(), o)
	case exact:
		return exactScanData(ctx, data, shape, o)
	}
	return sampledScanData(ctx, data, shape, o)
}

// offsetsByBin enumerates every lag vector with 0 < |v| <= maxLag and
// first nonzero component positive, in lexicographic order, grouped by
// its rounded-distance bin. Each bin's slice stores the offsets
// flattened (ndim components per offset) in enumeration order.
func offsetsByBin(ndim, maxLag int) [][]int32 {
	bins := make([][]int32, maxLag+1)
	maxSq := float64(maxLag * maxLag)
	off := make([]int32, ndim)
	var rec func(k int, allZero bool)
	rec = func(k int, allZero bool) {
		if k == ndim {
			var d2 float64
			for _, v := range off {
				d2 += float64(v) * float64(v)
			}
			if d2 == 0 || d2 > maxSq {
				return
			}
			bin := int(math.Round(math.Sqrt(d2)))
			if bin > maxLag {
				return
			}
			bins[bin] = append(bins[bin], off...)
			return
		}
		lo := int32(-maxLag)
		if allZero {
			lo = 0
		}
		for v := lo; v <= int32(maxLag); v++ {
			off[k] = v
			rec(k+1, allZero && v == 0)
		}
	}
	rec(0, true)
	return bins
}

// offsetCache memoizes offsetsByBin for the small cutoffs of windowed
// scans, which re-enumerate an identical offset set for every window —
// previously the dominant allocation of LocalRanges. Entries are
// immutable once stored. Large cutoffs (one-shot exact global scans)
// stay uncached: cacheableOffsets bounds each entry by its actual size
// — half of (2L+1)^d offsets at d int32 components — so the
// never-evicted map stays under ~1 MB per key at any rank. The
// spectral engine enumerates no list: its fold walks the same offsets,
// in the same order, in one sweep (fftscan.go), whatever the cutoff.
var offsetCache sync.Map // [2]int{ndim, maxLag} -> [][]int32

// cacheableOffsets reports whether the (ndim, maxLag) enumeration is
// small enough to memoize (≤ 1 MiB of offset storage).
func cacheableOffsets(ndim, maxLag int) bool {
	const maxBytes = 1 << 20
	side := 2*maxLag + 1
	bytes := float64(ndim) * 4 / 2 // per enumerated lattice point
	for i := 0; i < ndim; i++ {
		bytes *= float64(side)
		if bytes > maxBytes {
			return false
		}
	}
	return true
}

func offsetsByBinCached(ndim, maxLag int) [][]int32 {
	if !cacheableOffsets(ndim, maxLag) {
		return offsetsByBin(ndim, maxLag)
	}
	key := [2]int{ndim, maxLag}
	if v, ok := offsetCache.Load(key); ok {
		return v.([][]int32)
	}
	bins := offsetsByBin(ndim, maxLag)
	if v, loaded := offsetCache.LoadOrStore(key, bins); loaded {
		return v.([][]int32)
	}
	return bins
}

// scanScratch is the odometer state of scanOffset, allocated once per
// distance bin by exactScanData and reused across that bin's offsets,
// so the exact scan's inner loop allocates nothing per offset (pinned
// by TestScanOffsetAllocs).
type scanScratch struct {
	lo, hi, cur []int
}

func newScanScratch(nd int) *scanScratch {
	buf := make([]int, 3*nd)
	return &scanScratch{lo: buf[:nd], hi: buf[nd : 2*nd], cur: buf[2*nd : 3*nd]}
}

// scanOffset folds (z(x) − z(x+off))² over every base point x for
// which both ends are in bounds, continuing the running accumulation
// chain passed in. Base points are visited in row-major order, which
// together with the canonical offset order reproduces the legacy
// accumulation chains exactly. The accumulation is float64 for either
// element lane — the float64 instantiation is bit-identical to the
// historical concrete scan, and the float32 lane widens each sample
// (exactly) before differencing.
func scanOffset[T field.Elem](data []T, dims, strides []int, off []int32, sc *scanScratch, sum *float64, cnt *int64) {
	nd := len(dims)
	delta := 0
	lo := sc.lo[:nd]
	hi := sc.hi[:nd]
	for k := 0; k < nd; k++ {
		delta += int(off[k]) * strides[k]
		if off[k] >= 0 {
			lo[k], hi[k] = 0, dims[k]-int(off[k])
		} else {
			lo[k], hi[k] = -int(off[k]), dims[k]
		}
		if hi[k] <= lo[k] {
			return
		}
	}
	innerLo, innerHi := lo[nd-1], hi[nd-1]
	innerLen := int64(innerHi - innerLo)
	s, c := *sum, *cnt
	cur := sc.cur[:nd-1]
	copy(cur, lo[:nd-1])
	for {
		base := innerLo
		for k := 0; k < nd-1; k++ {
			base += cur[k] * strides[k]
		}
		for i := base; i < base+innerHi-innerLo; i++ {
			d := float64(data[i]) - float64(data[i+delta])
			s += float64(d * d)
		}
		c += innerLen
		k := nd - 2
		for ; k >= 0; k-- {
			cur[k]++
			if cur[k] < hi[k] {
				break
			}
			cur[k] = lo[k]
		}
		if k < 0 {
			break
		}
	}
	*sum, *cnt = s, c
}

// exactScanData accumulates every pair with offset magnitude <=
// MaxLag, on either compute lane. Distance bins are independent, so
// they are the parallel axis: each worker owns whole bins and folds
// that bin's offsets (in canonical order) into one accumulation chain,
// making the result independent of the worker count — and bitwise
// equal to the legacy serial 2D/3D scans.
func exactScanData[T field.Elem](ctx context.Context, data []T, shape []int, o Options) (*Empirical, error) {
	sum, cnt, err := exactScanSums(ctx, data, shape, o)
	if err != nil {
		return nil, err
	}
	return collect(sum, cnt), nil
}

// exactScanSums is exactScanData's scan: the per-bin squared-difference
// sums and pair counts, before collect turns them into an Empirical.
func exactScanSums[T field.Elem](ctx context.Context, data []T, shape []int, o Options) ([]float64, []int64, error) {
	nb := o.MaxLag
	nd := len(shape)
	bins := offsetsByBinCached(nd, nb)
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	dims := shape
	strides := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		strides[k] = acc
		acc *= shape[k]
	}
	// Cancellation is observed per offset: one scanOffset sweeps the
	// whole array once, so a dead context stops the scan within a single
	// array pass even when a bin holds thousands of offsets.
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if err := parallel.ForCtx(ctx, nb+1, o.Workers, func(b int) {
		offs := bins[b]
		if len(offs) == 0 {
			return
		}
		sc := newScanScratch(nd)
		var s float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			scanOffset(data, dims, strides, offs[p:p+nd], sc, &s, &c)
		}
		sum[b], cnt[b] = s, c
	}); err != nil {
		return nil, nil, err
	}
	return sum, cnt, nil
}

// sampledScanData runs the seeded pair sampler over an in-RAM lane.
// The draws depend only on (shape, Seed, MaxLag, MaxPairs), never on
// the data, so a key requested repeatedly is served from a cached pair
// plan (pairplan.go): the draws are replayed once and every later call
// only gathers the planned pairs, bit-identical to the direct scan.
func sampledScanData[T field.Elem](ctx context.Context, data []T, shape []int, o Options) (*Empirical, error) {
	p, err := sampledPlans.plan(ctx, shape, o)
	if err != nil {
		return nil, err
	}
	if p != nil {
		return gatherPlan(ctx, p, data)
	}
	return sampledScanAt(ctx, func(i int) float64 { return float64(data[i]) }, shape, o)
}

// sampledScanAt is the direct pair sampler: it draws and folds every
// pair as it goes, fetching elements through at. It serves an in-RAM
// key's first request and is the oracle the planned and streamed
// samplers are tested against. Widening happens inside the accessor
// (exactly, for the float32 lane), so the accumulation arithmetic —
// and therefore the seeded result — is the same on either lane.
func sampledScanAt(ctx context.Context, at func(int) float64, shape []int, o Options) (*Empirical, error) {
	sum := make([]float64, o.MaxLag+1)
	cnt := make([]int64, o.MaxLag+1)
	if err := drawPairs(ctx, shape, o, func(bin, i, j int, _ []int) error {
		d := at(i) - at(j)
		sum[bin] += float64(d * d)
		cnt[bin]++
		return nil
	}); err != nil {
		return nil, err
	}
	return collect(sum, cnt), nil
}

// drawPairs is the pair sampler's one draw loop: o.MaxPairs seeded
// draws of a random anchor point and a random offset within the cutoff
// ball. Component draw order (anchor components, then offset
// components, slowest dimension first) matches the legacy 2D and 3D
// samplers, so seeded results are unchanged; draw order and seeding
// are lane-independent, so the float32 lane samples exactly the pairs
// the oracle lane would. visit is called, in draw order, for every
// kept pair with its distance bin, its flat end indices i and j, and
// its lag vector off (valid only during the call); the first error
// visit returns stops the draws and is returned.
func drawPairs(ctx context.Context, shape []int, o Options, visit func(bin, i, j int, off []int) error) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	nd := len(shape)
	rng := xrand.New(o.Seed ^ sampleSalt(nd))
	nb := o.MaxLag
	maxSq := o.MaxLag * o.MaxLag
	dims := shape
	strides := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		strides[k] = acc
		acc *= shape[k]
	}
	pos := make([]int, nd)
	off := make([]int, nd)
	for p := 0; p < o.MaxPairs; p++ {
		if done != nil && p&0xfff == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		for k := 0; k < nd; k++ {
			pos[k] = rng.Intn(dims[k])
		}
		for k := 0; k < nd; k++ {
			off[k] = rng.Intn(2*o.MaxLag+1) - o.MaxLag
		}
		d2 := 0
		for k := 0; k < nd; k++ {
			d2 += off[k] * off[k]
		}
		if d2 == 0 || d2 > maxSq {
			continue
		}
		ok := true
		for k := 0; k < nd; k++ {
			if q := pos[k] + off[k]; q < 0 || q >= dims[k] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		bin := int(math.Round(math.Sqrt(float64(d2))))
		if bin > nb {
			continue
		}
		i, j := 0, 0
		for k := 0; k < nd; k++ {
			i += pos[k] * strides[k]
			j += (pos[k] + off[k]) * strides[k]
		}
		if err := visit(bin, i, j, off); err != nil {
			return err
		}
	}
	return nil
}
