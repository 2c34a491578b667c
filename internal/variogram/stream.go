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
// budget's fft.TightShare. A chunk resolves its endpoints by flat
// payload span: a counting sort buckets them by span, each span holding
// one is read once through TileReader.ReadRange, and the pairs are
// folded into their bins in draw order. Every bin keeps the direct
// scan's left-to-right chain, so the result is bitwise the in-RAM
// sampler's, and a call makes at most spans × chunks span reads instead
// of one point read per endpoint. Span values, bucket cursors and chunk
// scratch all come from the transform pool, planned against that share
// like every streaming consumer; the plan is a process-wide cache
// (≈1 MB at the default 400,000 draws, whatever the field size), not
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
// hold an endpoint's flat index and then its value, and its drawn
// (bin, i, j) triples. float32 holds all of them exactly for a
// float32-lane field of at most maxSlot32 elements.
type slot interface{ float32 | float64 }

const maxSlot32 = 1 << 24

// spanFixedBytes is the scratch a span of 1<<shift elements costs
// whatever the chunk size: the span's values and one bucket cursor per
// span, plus one.
func spanFixedBytes(n int, shift uint) int64 {
	return 8 * int64(min(1<<shift, n)+(n-1)>>shift+2)
}

// spanShift picks the span size 1<<shift of a streamed sampled scan of
// n elements under budgetBytes; <= 0 means unbounded: one span. Spans
// and chunks are planned against fft.TightShare of the budget, like
// every other streaming consumer. The span and its cursors take the
// largest size that fits a quarter of that share (fewer, longer reads),
// or failing that the cheapest one; the rest holds chunk pairs. A share
// that cannot hold that span, its cursors and one drawn pair of
// pairBytes is an error.
func spanShift(n int, budgetBytes int64, pairBytes int) (uint, error) {
	whole := uint(bits.Len(uint(n - 1)))
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
// the scan can keep. An unbounded budget holds them all in one chunk,
// up to maxPlanDraws pairs (every pair of a default scan), so no pair
// budget sizes an allocation on its own.
func chunkPairs(n int, shift uint, budgetBytes int64, pairBytes, total int) int {
	if budgetBytes <= 0 {
		return min(total, maxPlanDraws)
	}
	free := fft.TightShare(budgetBytes) - spanFixedBytes(n, shift)
	return int(min(free/int64(pairBytes), int64(total)))
}

// sampledScanReader is the seeded pair sampler over a reader, with no
// point reads. Its pairs come from the process-wide plan cache
// (pairplan.go), under the same key and second-request admission as
// the in-RAM scan, or straight from drawPairs when there is no plan.
// They are folded in budget-sized chunks: a chunk buckets its
// endpoints by span, reads every span holding one once, then folds
// each pair's squared difference into its bin. Every bin sums its
// pairs in draw order in one left-to-right chain over float64 values
// widened exactly as in RAM, so the result is bitwise the in-RAM
// sampler's on either stored lane.
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
		shift: shift,
		sum:   make([]float64, o.MaxLag+1),
		cnt:   make([]int64, o.MaxLag+1),
	}
	s.span = fft.AcquireTight[float64](min(1<<shift, n))
	defer fft.Release(s.span)
	s.cur = fft.AcquireTight[float64]((n-1)>>shift + 2)
	defer fft.Release(s.cur)
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

// batchPairs is the number of pairs a chunk walk hands step at once.
const batchPairs = 256

// pairBatch is a run of up to batchPairs pairs of a chunk, in walk order.
type pairBatch struct {
	n         int
	bin, i, j [batchPairs]int
}

// planChunk is the planned pairs from code k0 of bin b0 up to (not
// including) code k1 of bin b1.
type planChunk struct {
	p              *pairPlan
	b0, k0, b1, k1 int
}

// spanScan is the state of one streamed sampled scan. Span k holds the
// flat elements [k<<shift, (k+1)<<shift) of the field.
type spanScan[V slot] struct {
	tr    *field.TileReader
	shift uint
	span  []float64 // one span read, min(1<<shift, n) elements
	cur   []float64 // one bucket cursor per span, plus one
	slots []V       // a chunk's endpoints bucketed by span: flat index, then value
	pass  scanPass
	sum   []float64
	cnt   []int64
}

// scanPass is the step a chunk walk takes for each of its pairs.
type scanPass int

const (
	countPass scanPass = iota // count the endpoints of each span
	placePass                 // bucket the endpoints' flat indices by span
	foldPass                  // fold each pair's bucketed values into its bin
)

// planned folds the pairs of plan p, size pairs at a time, walking its
// bins in order.
func (s *spanScan[V]) planned(ctx context.Context, p *pairPlan, size int) error {
	if size == 0 {
		return nil
	}
	s.slots = fft.AcquireTight[V](2 * size)
	defer fft.Release(s.slots)
	c := &planChunk{p: p}
	walk := func() { s.walkPlan(c) }
	for c.b0 < len(p.bins) {
		c.b1, c.k1 = c.b0, c.k0
		for left := size; c.b1 < len(p.bins); c.b1, c.k1 = c.b1+1, 0 {
			take := min(len(p.bins[c.b1])-c.k1, left)
			c.k1 += take
			if left -= take; left == 0 {
				break
			}
		}
		if err := s.fold(ctx, walk); err != nil {
			return err
		}
		c.b0, c.k0 = c.b1, c.k1
	}
	return nil
}

// drawn folds the pairs drawPairs draws, size pairs at a time, keeping
// each as a (bin, i, j) triple until its chunk is full.
func (s *spanScan[V]) drawn(ctx context.Context, shape []int, o Options, size int) error {
	s.slots = fft.AcquireTight[V](2 * size)
	defer fft.Release(s.slots)
	trip := fft.AcquireTight[V](3 * size)
	defer fft.Release(trip)
	m := 0
	walk := func() { s.walkDrawn(trip[:m]) }
	if err := drawPairs(ctx, shape, o, func(bin, i, j int, _ []int) error {
		trip[m], trip[m+1], trip[m+2] = V(bin), V(i), V(j)
		if m += 3; m < len(trip) {
			return nil
		}
		err := s.fold(ctx, walk)
		m = 0
		return err
	}); err != nil {
		return err
	}
	if m == 0 {
		return nil
	}
	return s.fold(ctx, walk)
}

// walkPlan hands the pairs of c to step in batches, each bin's pairs
// in draw order.
func (s *spanScan[V]) walkPlan(c *planChunk) {
	var pb pairBatch
	p := c.p
	mask := uint32(1)<<p.shift - 1
	for b, k := c.b0, c.k0; b <= c.b1 && b < len(p.bins); b, k = b+1, 0 {
		codes, ds := p.bins[b], p.deltas[b]
		if b == c.b1 {
			codes = codes[:c.k1]
		}
		for _, code := range codes[k:] {
			i := int(code >> p.shift)
			if pb.add(b, i, i+int(ds[code&mask])) {
				s.step(&pb)
			}
		}
	}
	s.step(&pb)
}

// walkDrawn hands the (bin, i, j) triples of trip to step in batches.
func (s *spanScan[V]) walkDrawn(trip []V) {
	var pb pairBatch
	for t := 0; t+2 < len(trip); t += 3 {
		if pb.add(int(trip[t]), int(trip[t+1]), int(trip[t+2])) {
			s.step(&pb)
		}
	}
	s.step(&pb)
}

// add appends pair (i, j) of bin bin and reports whether pb is full.
func (pb *pairBatch) add(bin, i, j int) bool {
	pb.bin[pb.n], pb.i[pb.n], pb.j[pb.n] = bin, i, j
	pb.n++
	return pb.n == batchPairs
}

// fold adds one chunk's pairs, which walk hands to step, to the bins:
// a counting sort buckets the chunk's endpoints by span, each span
// holding one is read once and its values replace the bucketed indices,
// and a last walk, replaying the bucket cursors, folds every pair. The
// context is checked once per chunk.
func (s *spanScan[V]) fold(ctx context.Context, walk func()) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	cur, slots, span := s.cur, s.slots, s.span
	clear(cur)
	s.pass = countPass
	walk()
	for k := 1; k < len(cur); k++ {
		cur[k] += cur[k-1]
	}
	// cur[k] is where bucket k starts; placing moves it to where it ends.
	s.pass = placePass
	walk()
	n := s.tr.Len()
	lo := 0
	for k, end := range cur[:len(cur)-1] {
		hi := int(end)
		if hi == lo {
			continue
		}
		// A short last span is read as the field's last full span.
		start := min(k<<s.shift, n-len(span))
		if err := s.tr.ReadRange(span, start); err != nil {
			return err
		}
		for x := lo; x < hi; x++ {
			slots[x] = V(span[int(slots[x])-start])
		}
		lo = hi
	}
	copy(cur[1:], cur) // back to where each bucket starts
	cur[0] = 0
	s.pass = foldPass
	walk()
	return nil
}

// step takes the current pass's step for every pair of pb and empties
// it. Every pass walks a chunk's pairs in the same order, and each
// pair's i before its j, so the fold pass meets every endpoint at the
// bucket slot the place pass gave it.
func (s *spanScan[V]) step(pb *pairBatch) {
	sh, cur, slots := s.shift, s.cur, s.slots
	bins, is, js := pb.bin[:pb.n], pb.i[:pb.n], pb.j[:pb.n]
	pb.n = 0
	switch s.pass {
	case countPass:
		for k, i := range is {
			cur[i>>sh+1]++
			cur[js[k]>>sh+1]++
		}
	case placePass:
		for k, i := range is {
			slots[int(cur[i>>sh])] = V(i)
			cur[i>>sh]++
			j := js[k]
			slots[int(cur[j>>sh])] = V(j)
			cur[j>>sh]++
		}
	default:
		sum, cnt := s.sum, s.cnt
		for k, i := range is {
			vi := float64(slots[int(cur[i>>sh])])
			cur[i>>sh]++
			j := js[k]
			vj := float64(slots[int(cur[j>>sh])])
			cur[j>>sh]++
			d := vi - vj
			sum[bins[k]] += float64(d * d)
			cnt[bins[k]]++
		}
	}
}
