package variogram

// The pair plan of the sampled scan. The sampler's draws depend
// only on (shape, Seed, MaxLag, MaxPairs), never on the data, and every
// default analysis repeats the same key, so re-drawing them (tens of
// milliseconds of Intn calls) dominates a scan whose arithmetic — one
// squared difference per kept pair — costs well under a millisecond.
// A plan replays the draws once into per-bin pair lists; a gather
// walks them. Each bin keeps its pairs in draw order and sums them in
// the same left-to-right chain as the direct scan, so a gather is
// bit-identical to drawing.
//
// Plans are admitted on a key's second request: the first runs the
// direct scan and is only remembered, so a caller that varies Seed on
// every call never pays for a build. In-RAM and Reader sources share
// the one cache: the streamed sampler (stream.go) walks a plan's codes
// chunk by chunk instead of gathering from memory. Its chunks' span
// layout — which span read each endpoint comes from, and where in it —
// depends only on the plan, the span shift and the chunk size, so the
// cached plan keeps the last one built beside its pairs (2 B an
// endpoint), replacing it when a request needs another. A plan and its
// layout are a process-wide cache entry — at most planCacheSlots of
// them, each bounded there whatever the field size — not the working
// memory of a request, so a Reader's tile budget does not count them.

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lossycorr/internal/field"
)

const (
	// planCacheSlots bounds the cache to this many built plans (and as
	// many remembered first-request keys), evicted oldest first. A plan
	// costs at most 8 B per draw — one uint32 code per kept pair plus
	// at most one int32 delta per kept pair — plus, once streamed, one
	// span layout: 4 B per kept pair (a uint16 offset per endpoint) and
	// bucket bounds of at most 1 B per kept pair (layOutPlan keeps no
	// larger one). So with maxPlanDraws the cache holds at most
	// 4 × 13 MiB = 52 MiB. At the default 400,000 draws a 48³ volume
	// keeps about 104,000 pairs: its plan is about 0.6 MB and its
	// layout 0.4 MB; a 512² field keeps 193,000, 1.3 MB and 0.8 MB.
	planCacheSlots = 4
	// maxPlanDraws is the largest MaxPairs a plan is built for.
	maxPlanDraws = 1 << 20
	// maxPlanCells bounds the (2·MaxLag+1)^rank lag-vector table a build
	// indexes distinct offsets with (4 B a cell, freed after the build).
	maxPlanCells = 1 << 20
)

// planKey is everything the sampler's draws depend on. Ranks above 3
// are not planned; a lower rank leaves the trailing extents zero.
type planKey struct {
	shape            [3]int
	seed             uint64
	maxLag, maxPairs int
}

// pairPlan is the sampled scan's draws replayed into per-bin pair
// lists. Pair p of bin b is packed as bins[b][p] = i<<shift | k, its
// other end being j = i + deltas[b][k]: each bin indexes its distinct
// lag vectors, so a kept pair fits in 4 bytes. A plan's pairs are
// immutable once built; any number of gathers may share it.
type pairPlan struct {
	shift  uint
	bins   [][]uint32
	deltas [][]int32
	// layout is the streamed span layout last built for the plan
	// (stream.go), replaced when a request needs another, so a cached
	// plan keeps one however many budgets share its key.
	layout atomic.Pointer[spanLayout]
}

// planPos is a position in a plan's pairs: code k of bin b.
type planPos struct{ b, k int }

// walk calls fn once per bin with the codes of the m planned pairs from
// pos on, in bin order, and returns the position after them.
func (p *pairPlan) walk(pos planPos, m int, fn func(b int, codes []uint32)) planPos {
	for m > 0 {
		codes := p.bins[pos.b][pos.k:]
		codes = codes[:min(len(codes), m)]
		fn(pos.b, codes)
		m -= len(codes)
		if pos.k += len(codes); pos.k == len(p.bins[pos.b]) {
			pos = planPos{pos.b + 1, 0}
		}
	}
	return pos
}

// endpoints returns a walk over the (i, j) of the m planned pairs from
// pos on, in draw order.
func (p *pairPlan) endpoints(pos planPos, m int) func(func(i, j int)) {
	return func(fn func(i, j int)) {
		mask := uint32(1)<<p.shift - 1
		p.walk(pos, m, func(b int, codes []uint32) {
			ds := p.deltas[b]
			for _, c := range codes {
				i := int(c >> p.shift)
				fn(i, i+int(ds[c&mask]))
			}
		})
	}
}

// pairs returns the number of planned pairs.
func (p *pairPlan) pairs() int {
	n := 0
	for _, codes := range p.bins {
		n += len(codes)
	}
	return n
}

// planKeyOf returns the cache key of the sampled scan of (shape, o)
// and the code shift its plan packs with; ok is false for a key that
// always draws directly: rank above 3, a pair budget above
// maxPlanDraws, a lag table above maxPlanCells, or a code that could
// overflow 32 bits.
func planKeyOf(shape []int, o Options) (k planKey, shift uint, ok bool) {
	nd := len(shape)
	if nd > len(k.shape) || o.MaxPairs > maxPlanDraws || o.MaxLag > maxPlanCells {
		return k, 0, false
	}
	cells, n := 1, 1
	for _, d := range shape {
		cells *= 2*o.MaxLag + 1
		if cells > maxPlanCells {
			return k, 0, false
		}
		n *= d
	}
	shift = uint(bits.Len(uint(shellBound(nd, o.MaxLag) - 1)))
	if uint(bits.Len(uint(n-1)))+shift > 32 {
		return k, 0, false
	}
	copy(k.shape[:], shape)
	k.seed, k.maxLag, k.maxPairs = o.Seed, o.MaxLag, o.MaxPairs
	return k, shift, true
}

// shellBound bounds the number of lattice lag vectors v of rank nd
// with round(|v|) = b, for every bin b <= maxLag. The unit cubes
// centred on those vectors are disjoint and lie inside the spherical
// shell of radii b ∓ (1+√nd)/2, so their count is at most the shell's
// volume, which grows with b.
func shellBound(nd, maxLag int) int {
	d := float64(nd)
	pad := (1 + math.Sqrt(d)) / 2
	r0 := max(float64(maxLag)-pad, 0)
	r1 := float64(maxLag) + pad
	ball := math.Pow(math.Pi, d/2) / math.Gamma(d/2+1) // unit-ball volume
	return int(math.Ceil(ball * (math.Pow(r1, d) - math.Pow(r0, d))))
}

// buildPlan replays the draws of (shape, o) twice: once to count each
// bin's pairs and index its distinct lag vectors, once to fill
// exact-size bins with packed codes. A cancelled build returns
// ctx.Err() and no plan.
func buildPlan(ctx context.Context, shape []int, o Options, shift uint) (*pairPlan, error) {
	side := 2*o.MaxLag + 1
	cells := 1
	for range shape {
		cells *= side
	}
	cell := func(off []int) int {
		c := 0
		for _, v := range off {
			c = c*side + v + o.MaxLag
		}
		return c
	}
	// slot[cell(off)] is 1 + the index of lag vector off in its bin's
	// delta table, 0 until off is first drawn.
	slot := make([]uint32, cells)
	deltas := make([][]int32, o.MaxLag+1)
	counts := make([]int, o.MaxLag+1)
	total := 0
	if err := drawPairs(ctx, shape, o, func(bin, i, j int, off []int) error {
		c := cell(off)
		if slot[c] == 0 {
			deltas[bin] = append(deltas[bin], int32(j-i))
			slot[c] = uint32(len(deltas[bin]))
		}
		counts[bin]++
		total++
		return nil
	}); err != nil {
		return nil, err
	}
	codes := make([]uint32, total)
	bins := make([][]uint32, o.MaxLag+1)
	for b, n := range counts {
		bins[b], codes = codes[:0:n], codes[n:]
	}
	if err := drawPairs(ctx, shape, o, func(bin, i, _ int, off []int) error {
		bins[bin] = append(bins[bin], uint32(i)<<shift|(slot[cell(off)]-1))
		return nil
	}); err != nil {
		return nil, err
	}
	return &pairPlan{shift: shift, bins: bins, deltas: deltas}, nil
}

// gatherPlan folds the planned pairs of data into an Empirical: per
// bin, the same left-to-right chain over the same pairs in the same
// order as the direct scan, widened the same way, so the result is
// bitwise the direct scan's. Cancellation is observed once per bin.
func gatherPlan[T field.Elem](ctx context.Context, p *pairPlan, data []T) (*Empirical, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	sum := make([]float64, len(p.bins))
	cnt := make([]int64, len(p.bins))
	mask := uint32(1)<<p.shift - 1
	for b, codes := range p.bins {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		ds := p.deltas[b]
		var s float64
		for _, c := range codes {
			i := int(c >> p.shift)
			d := float64(data[i]) - float64(data[i+int(ds[c&mask])])
			s += float64(d * d)
		}
		sum[b], cnt[b] = s, int64(len(codes))
	}
	return collect(sum, cnt), nil
}

// planCache holds the built plans and the keys seen once, each list
// oldest first and bounded by slots.
type planCache struct {
	mu    sync.Mutex
	slots int
	seen  []planKey
	built []planEntry
}

type planEntry struct {
	key  planKey
	plan *pairPlan
}

// sampledPlans is the process-wide pair-plan cache of the sampled
// scan, shared by in-RAM and Reader sources.
var sampledPlans = &planCache{slots: planCacheSlots}

// plan returns the pair plan of the sampled scan of (shape, o),
// building it on the key's second request. A nil plan with a nil error
// means the caller draws directly: the key's first request, or a key
// planKeyOf rejects. A cancelled build returns ctx.Err() and leaves
// the key uncached.
func (c *planCache) plan(ctx context.Context, shape []int, o Options) (*pairPlan, error) {
	k, shift, ok := planKeyOf(shape, o)
	if !ok {
		return nil, nil
	}
	p, build := c.lookup(k)
	if !build {
		return p, nil
	}
	p, err := buildPlan(ctx, shape, o, shift)
	if err != nil {
		return nil, err
	}
	return c.store(k, p), nil
}

// lookup returns k's plan if one is built. Otherwise it reports build
// for a key seen once before (forgetting it) and remembers a new one.
func (c *planCache) lookup(k planKey) (p *pairPlan, build bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.built {
		if e.key == k {
			return e.plan, false
		}
	}
	if i := slices.Index(c.seen, k); i >= 0 {
		c.seen = slices.Delete(c.seen, i, i+1)
		return nil, true
	}
	c.seen = pushBounded(c.seen, k, c.slots)
	return nil, false
}

// store caches p under k, unless a concurrent build stored k first, and
// returns the plan the cache holds.
func (c *planCache) store(k planKey, p *pairPlan) *pairPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.built {
		if e.key == k {
			return e.plan
		}
	}
	c.built = pushBounded(c.built, planEntry{k, p}, c.slots)
	return p
}

// pushBounded appends e, first dropping the oldest element if s already
// holds n.
func pushBounded[E any](s []E, e E, n int) []E {
	if len(s) >= n {
		s = slices.Delete(s, 0, 1)
	}
	return append(s, e)
}
