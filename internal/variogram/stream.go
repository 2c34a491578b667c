package variogram

// The global estimators over an out-of-core field (a Reader source).
// The windowed sweep needs nothing here: the stat engine streams
// h-aligned tiles itself, bit-identical to the in-RAM sweep. The
// spectral estimator runs the in-RAM kernel slab by slab (fftstream.go;
// pair counts exact, Gamma tolerance-equivalent). The exact scan — which
// by construction touches every element pair — materializes the field
// through the transform pool, where the peak gauge honestly reports the
// cost.
//
// The sampled estimator takes the in-RAM sampler's pairs — replayed
// from the shared pair-plan cache (pairplan.go) when the key has a
// plan, drawn otherwise — in draw order, in chunks sized from the
// budget's fft.TightShare. A chunk's layout buckets its endpoints by
// the flat payload span (at most 1<<16 elements) that holds them: the
// bucket bounds, and each endpoint's offset into its span read, bucket
// by bucket. Every span holding an endpoint is read once through
// field.Gather, which copies those offsets from the staged payload
// bytes straight into the chunk's slots, in the slot lane; one fold
// then replays the buckets in draw order with int32 cursors. A layout
// depends only on the plan, the span shift and the chunk size, never
// on the data, so a cached plan keeps its last one (2 B an endpoint)
// and a warm request only reads and folds; a drawn chunk (a key's first
// request, or a key planKeyOf rejects) lays itself out in its own
// scratch. Every bin keeps the direct scan's left-to-right chain, so
// the result is bitwise the in-RAM sampler's, and a call makes at most
// spans × chunks span reads instead of one point read per endpoint. The staged span and the chunk scratch come
// from the transform pool, planned against that share like every
// streaming consumer; the plan and its layout are a process-wide cache
// entry (bounded at planCacheSlots, whatever the field size), not
// request memory.

import (
	"context"
	"fmt"
	"math/bits"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
)

// scanReader runs the chosen estimator over an out-of-core field.
func scanReader(ctx context.Context, tr *field.TileReader, so field.StreamOptions, est estimator, o Options) (*Empirical, error) {
	switch est {
	case spectral:
		return fftScanReader(ctx, tr, o, so)
	case exact:
		return exactScanReader(ctx, tr, o)
	}
	return sampledScanReader(ctx, tr, o, so)
}

// exactScanReader runs the exhaustive scan over a materialized copy of
// the reader: exact pairs span every lag, so there is no streaming
// decomposition that preserves the accumulation chains. The copy lives
// in a pooled transform buffer, so the peak-bytes gauge reports it.
func exactScanReader(ctx context.Context, tr *field.TileReader, o Options) (*Empirical, error) {
	shape := tr.Shape()
	buf := fft.AcquireTight[float64](tr.Len())
	defer fft.Release(buf)
	blk := &field.Field{Data: buf}
	lo := make([]int, len(shape))
	if err := tr.ReadBlock(blk, lo, shape); err != nil {
		return nil, err
	}
	return exactScanData(ctx, blk.Data, shape, o)
}

// slot is the type of a chunk's scratch: its endpoint slots, which
// hold an endpoint's offset into its span read and then its value, and
// its drawn (bin, i, j) triples. float32 holds all of them exactly for
// a float32-lane field of at most maxSlot32 elements.
type slot interface{ float32 | float64 }

const maxSlot32 = 1 << 24

// maxSpanShift caps a span at 1<<16 elements, so an endpoint's offset
// into its span read fits the uint16 a cached layout keeps.
const maxSpanShift = 16

// spanFixedBytes is the scratch a span of 1<<shift elements costs
// whatever the chunk size, at 8 B each: the span's staged bytes (a
// float64 buffer on either stored lane) and one bucket cursor per
// span, plus one (an int32, so an upper bound).
func spanFixedBytes(n int, shift uint) int64 {
	return 8 * int64(min(1<<shift, n)+(n-1)>>shift+2)
}

// spanShift picks the span size 1<<shift of a streamed sampled scan of
// n elements under budgetBytes; <= 0 means unbounded: the largest span,
// one span for a field of at most 1<<maxSpanShift elements. Spans and
// chunks are planned against fft.TightShare of the budget, like every
// other streaming consumer. The span and its cursors take the largest
// size that fits a quarter of that share (fewer, longer reads), or
// failing that the cheapest one; the rest holds chunk pairs. A share
// that cannot hold that span, its cursors and one drawn pair of
// pairBytes is an error.
func spanShift(n int, budgetBytes int64, pairBytes int) (uint, error) {
	whole := min(uint(bits.Len(uint(n-1))), maxSpanShift)
	if budgetBytes <= 0 {
		return whole, nil
	}
	share := fft.TightShare(budgetBytes)
	best, fit := whole, false
	for sh := uint(0); sh <= whole; sh++ {
		b := spanFixedBytes(n, sh)
		if b <= share/4 {
			best, fit = sh, true
		} else if !fit && b < spanFixedBytes(n, best) {
			best = sh
		}
	}
	if need := spanFixedBytes(n, best) + int64(pairBytes); need > share {
		return 0, fmt.Errorf("variogram: memory budget %d too small for a sampled scan of %d elements (needs %d)",
			budgetBytes, n, 2*need)
	}
	return best, nil
}

// chunkPairs is the number of pairs a chunk holds beside a span of
// 1<<shift elements, at pairBytes of scratch each, capped at the total
// the scan can keep and at maxPlanDraws (every pair of a default
// scan), so no pair budget sizes an allocation on its own and a slot
// index fits an int32. An unbounded budget holds the capped total.
func chunkPairs(n int, shift uint, budgetBytes int64, pairBytes, total int) int {
	size := min(total, maxPlanDraws)
	if budgetBytes <= 0 {
		return size
	}
	free := fft.TightShare(budgetBytes) - spanFixedBytes(n, shift)
	return int(min(free/int64(pairBytes), int64(size)))
}

// sampledScanReader is the seeded pair sampler over a reader, with no
// point reads. Its pairs come from the process-wide plan cache
// (pairplan.go), under the same key and second-request admission as
// the in-RAM scan, or straight from drawPairs when there is no plan.
// They are folded in budget-sized chunks: a chunk's layout buckets its
// endpoints by span, every span holding one is read once into its
// bucket, then each pair's squared difference is folded into its bin.
// Every bin sums its pairs in draw order in one left-to-right chain
// over float64 values widened exactly as in RAM, so the result is
// bitwise the in-RAM sampler's on either stored lane.
func sampledScanReader(ctx context.Context, tr *field.TileReader, o Options, so field.StreamOptions) (*Empirical, error) {
	if tr.Float32Lane() && tr.Len() <= maxSlot32 {
		return sampledSpans[float32](ctx, tr, o, so, 4)
	}
	return sampledSpans[float64](ctx, tr, o, so, 8)
}

// sampledSpans is sampledScanReader with chunk scratch of type V,
// slotBytes bytes an element. A planned pair takes two endpoint slots;
// a drawn pair also keeps its (bin, i, j) until its chunk folds.
func sampledSpans[V slot](ctx context.Context, tr *field.TileReader, o Options, so field.StreamOptions, slotBytes int) (*Empirical, error) {
	shape := tr.Shape()
	n := tr.Len()
	planned, drawn := 2*slotBytes, 5*slotBytes
	shift, err := spanShift(n, so.BudgetBytes, drawn)
	if err != nil {
		return nil, err
	}
	p, err := sampledPlans.plan(ctx, shape, o)
	if err != nil {
		return nil, err
	}
	s := &spanScan[V]{
		tr:    tr,
		n:     n,
		shift: shift,
		cur:   make([]int32, (n-1)>>shift+2),
		sum:   make([]float64, o.MaxLag+1),
		cnt:   make([]int64, o.MaxLag+1),
	}
	s.stage = fft.AcquireTight[float64](min(1<<shift, n))
	defer fft.Release(s.stage)
	if p != nil {
		err = s.planned(ctx, p, chunkPairs(n, shift, so.BudgetBytes, planned, p.pairs()))
	} else {
		err = s.drawn(ctx, shape, o, chunkPairs(n, shift, so.BudgetBytes, drawn, o.MaxPairs))
	}
	if err != nil {
		return nil, err
	}
	return collect(s.sum, s.cnt), nil
}

// spanScan is the state of one streamed sampled scan. Span k holds the
// flat elements [k<<shift, (k+1)<<shift) of the field.
type spanScan[V slot] struct {
	tr    *field.TileReader
	n     int
	shift uint
	stage []float64 // one span read's stored bytes, min(1<<shift, n) elements
	cur   []int32   // one bucket cursor per span, plus one
	slots []V       // a chunk's endpoints bucketed by span: span offset, then value
	sum   []float64
	cnt   []int64
}

// spanStart is where span k is read from: its first element, or for a
// short last span the start of the field's last full span.
func (s *spanScan[V]) spanStart(k int) int { return min(k<<s.shift, s.n-len(s.stage)) }

// spanLayout is the layout of every chunk of a plan at one span shift
// and chunk size: what layOut computes, computed once. Chunk c's
// bucket bounds are bounds[c·w:(c+1)·w], w being the spans plus one,
// and the span offsets of its endpoints, bucket by bucket, start at
// offs[2·c·size]. It depends on the plan, the shift and the size, never
// on the data, and is immutable once built.
type spanLayout struct {
	shift  uint
	size   int
	bounds []int32
	offs   []uint16
}

// layOutPlan lays out every chunk of plan p at size pairs a chunk, or
// returns nil when the bucket bounds would cost more than 1 B per
// planned pair (a tiny budget's many spans and chunks): such a scan
// lays each chunk out in its own scratch instead.
func layOutPlan[V slot](s *spanScan[V], p *pairPlan, size int) *spanLayout {
	total, w := p.pairs(), len(s.cur)
	chunks := (total + size - 1) / size
	if 4*chunks*w > total {
		return nil
	}
	l := &spanLayout{
		shift:  s.shift,
		size:   size,
		bounds: make([]int32, chunks*w),
		offs:   make([]uint16, 2*total),
	}
	var pos planPos
	for c := range chunks {
		m := min(size, total-c*size)
		layOut(s, p.endpoints(pos, m), l.bounds[c*w:(c+1)*w], l.offs[2*c*size:])
		pos = p.walk(pos, m, func(int, []uint32) {}) // on to the next chunk
	}
	return l
}

// layOut lays out one chunk, whose pairs' endpoints each walks in draw
// order: a counting sort buckets them by span, bucket k taking the
// chunk's slots [bounds[k], bounds[k+1]), and offs[x] is the offset
// into its span read of the endpoint slot x receives — each bucket in
// draw order, a pair's i before its j.
func layOut[V slot, O field.Offset](s *spanScan[V], each func(func(i, j int)), bounds []int32, offs []O) {
	sh := s.shift
	clear(bounds)
	each(func(i, j int) {
		bounds[i>>sh+1]++
		bounds[j>>sh+1]++
	})
	for k := 1; k < len(bounds); k++ {
		bounds[k] += bounds[k-1]
	}
	// bounds[k] is where bucket k starts; placing moves it to where it ends.
	place := func(e int) {
		k := e >> sh
		offs[bounds[k]] = O(e - s.spanStart(k))
		bounds[k]++
	}
	each(func(i, j int) {
		place(i)
		place(j)
	})
	copy(bounds[1:], bounds) // back to where each bucket starts
	bounds[0] = 0
}

// gather fills a laid-out chunk's slots: each span holding one of its
// endpoints is read once, and its bucket takes their values. The
// context is checked once per chunk.
func gather[V slot, O field.Offset](ctx context.Context, s *spanScan[V], bounds []int32, offs []O) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for k := range len(bounds) - 1 {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		if err := field.Gather(s.tr, s.slots[lo:hi], offs[lo:hi], s.spanStart(k), s.stage); err != nil {
			return err
		}
	}
	return nil
}

// planned folds the pairs of plan p, size pairs at a time, walking its
// bins in order. Each chunk's layout comes from the one p keeps, built
// on a miss, or is laid out in the chunk's own slots when layOutPlan
// keeps none.
func (s *spanScan[V]) planned(ctx context.Context, p *pairPlan, size int) error {
	if size == 0 {
		return nil
	}
	s.slots = fft.AcquireTight[V](2 * size)
	defer fft.Release(s.slots)
	lay := p.layout.Load()
	if lay == nil || lay.shift != s.shift || lay.size != size {
		if lay = layOutPlan(s, p, size); lay != nil {
			p.layout.Store(lay)
		}
	}
	w := len(s.cur)
	var pos planPos
	for c, total := 0, p.pairs(); c*size < total; c++ {
		m := min(size, total-c*size)
		var err error
		if lay != nil {
			bounds := lay.bounds[c*w : (c+1)*w]
			err = gather(ctx, s, bounds, lay.offs[2*c*size:])
			copy(s.cur, bounds)
		} else {
			layOut(s, p.endpoints(pos, m), s.cur, s.slots)
			err = gather(ctx, s, s.cur, s.slots)
		}
		if err != nil {
			return err
		}
		pos = s.foldPlan(p, pos, m)
	}
	return nil
}

// foldPlan folds the m planned pairs of p from pos on into their bins,
// replaying the bucket cursors in draw order, and returns where the
// next chunk starts.
func (s *spanScan[V]) foldPlan(p *pairPlan, pos planPos, m int) planPos {
	return p.walk(pos, m, func(b int, codes []uint32) {
		s.sum[b] = foldCodes(codes, p.deltas[b], p.shift, s.shift, s.cur, s.slots, s.sum[b])
		s.cnt[b] += int64(len(codes))
	})
}

// foldCodes adds the squared differences of one bin's planned pairs,
// packed with code shift cs, to sum: each endpoint's value is the next
// slot of its span's bucket (span shift sh).
func foldCodes[V slot](codes []uint32, ds []int32, cs, sh uint, cur []int32, slots []V, sum float64) float64 {
	cs, sh = cs&31, sh&63 // in range: no shift-overflow checks in the loop
	mask := uint32(1)<<cs - 1
	for _, c := range codes {
		i := int(c >> cs)
		j := i + int(ds[c&mask])
		si, sj := i>>sh, j>>sh
		vi := float64(slots[cur[si]])
		cur[si]++
		vj := float64(slots[cur[sj]])
		cur[sj]++
		d := vi - vj
		sum += float64(d * d)
	}
	return sum
}

// drawn folds the pairs drawPairs draws, size pairs at a time, keeping
// each as a (bin, i, j) triple until its chunk is full. A chunk is laid
// out in its own slots, which hold each endpoint's span offset until
// the gather replaces it with the value.
func (s *spanScan[V]) drawn(ctx context.Context, shape []int, o Options, size int) error {
	s.slots = fft.AcquireTight[V](2 * size)
	defer fft.Release(s.slots)
	trip := fft.AcquireTight[V](3 * size)
	defer fft.Release(trip)
	m := 0
	chunk := func() error {
		t := trip[:m]
		m = 0
		layOut(s, func(fn func(i, j int)) {
			for x := 0; x < len(t); x += 3 {
				fn(int(t[x+1]), int(t[x+2]))
			}
		}, s.cur, s.slots)
		if err := gather(ctx, s, s.cur, s.slots); err != nil {
			return err
		}
		s.foldDrawn(t)
		return nil
	}
	if err := drawPairs(ctx, shape, o, func(bin, i, j int, _ []int) error {
		trip[m], trip[m+1], trip[m+2] = V(bin), V(i), V(j)
		if m += 3; m < len(trip) {
			return nil
		}
		return chunk()
	}); err != nil {
		return err
	}
	if m == 0 {
		return nil
	}
	return chunk()
}

// foldDrawn folds the (bin, i, j) triples of trip into their bins,
// replaying the bucket cursors in draw order.
func (s *spanScan[V]) foldDrawn(trip []V) {
	sh, cur, slots := s.shift, s.cur, s.slots
	for x := 0; x+2 < len(trip); x += 3 {
		b, si, sj := int(trip[x]), int(trip[x+1])>>sh, int(trip[x+2])>>sh
		vi := float64(slots[cur[si]])
		cur[si]++
		vj := float64(slots[cur[sj]])
		cur[sj]++
		d := vi - vj
		s.sum[b] += float64(d * d)
		s.cnt[b]++
	}
}
