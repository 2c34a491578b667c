package variogram

// Lockstep window scan. A window's exact scan folds every pair of a
// distance bin into one serial float64 chain, so a single window's
// inner loop waits on floating-point add latency. LocalRangeKernel
// therefore scans up to scanLanes (8) equal-shaped windows in one
// pass: each lane keeps its own chain, in exactly exactScanData's
// offset order and row-major base-point order, so every lane's
// Empirical is bitwise the one a single-window scan produces, while
// the lanes' independent chains overlap in the pipeline.
//
// The lanes are interleaved in groups of four: element j of group g's
// plane holds value j of lanes 4g to 4g+3, so one row of pairs reads
// two slices per group, not two per lane. laneRow, the scalar row
// loop, keeps its counter, both bases and a group's four chains in
// registers. Trailing axes an offset leaves whole are folded into one
// longer row, which visits the same base points in the same order. A
// row kernel walks the offset's two innermost odometer levels itself,
// the rows of the axes just above the row (a rowGrid), and the Go
// odometer drives only the axes above those, which exist at rank 4
// and up. On amd64 with AVX2, when both groups hold kept windows,
// laneRows2 walks that grid for both groups at once, one 256-bit
// register per group element, keeping the 8 chains in registers
// across rows and doing per lane the same subtract, rounded multiply
// and add as laneRow, in the same order and never fused, so every bit
// is laneRow's. Otherwise (other architectures, CPUs without AVX2,
// batches of one group) each group is a whole scan of its own, row by
// row through laneRows, so a pass walks one plane.

import (
	"slices"
	"sync"

	"lossycorr/internal/cpufeat"
	"lossycorr/internal/field"
	"lossycorr/internal/stat"
)

// scanLanes is the number of windows the lockstep scan carries per
// pass: a whole batch of the window sweep.
const scanLanes = stat.BatchWidth

// laneScratch is the reusable state of one lockstep scan: the odometer
// of scanOffsetLanes, the interleaved plane of each lane group, each
// lane's per-bin sums, the shared per-bin pair counts, and the
// empirical variogram each window's fit reads.
type laneScratch struct {
	sc      scanScratch
	strides []int
	il      [scanLanes / 4][][4]float64
	sum     [scanLanes][]float64
	cnt     []int64
	emp     Empirical
}

var laneScratchPool = sync.Pool{New: func() any { return new(laneScratch) }}

// reset sizes the scratch for a rank-nd scan of nb+1 bins and zeroes
// the accumulators.
func (ls *laneScratch) reset(nd, nb int) {
	if len(ls.strides) != nd {
		buf := make([]int, 4*nd)
		ls.strides = buf[:nd]
		ls.sc = scanScratch{lo: buf[nd : 2*nd], hi: buf[2*nd : 3*nd], cur: buf[3*nd : 4*nd]}
	}
	for l := range ls.sum {
		ls.sum[l] = resetBins(ls.sum[l], nb+1)
	}
	ls.cnt = resetBins(ls.cnt, nb+1)
}

// interleave fills the planes of the groups that hold one of lanes (1
// to scanLanes arrays) with their first n values transposed, element j
// of group g holding value j of lanes 4g to 4g+3, and returns those
// planes. Slots past len(lanes) in the last group repeat that group's
// first lane.
func (ls *laneScratch) interleave(lanes [][]float64, n int) [][][4]float64 {
	groups := (len(lanes) + 3) / 4
	for g := range groups {
		if cap(ls.il[g]) < n {
			ls.il[g] = make([][4]float64, n)
		}
		il := ls.il[g][:n]
		for l := range 4 {
			src := lanes[4*g]
			if 4*g+l < len(lanes) {
				src = lanes[4*g+l]
			}
			for j, v := range src[:n] {
				il[j][l] = v
			}
		}
		ls.il[g] = il
	}
	return ls.il[:groups]
}

// resetBins returns s resized to n zeroed elements, reusing its
// storage when it is large enough.
func resetBins[E float64 | int64](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// laneRow folds (x − y)² of each pair (xs[i], ys[i]) into lane l's
// chain s_l, in index order. The explicit float64 conversion rounds
// each square before it is added, so no target fuses the two into one
// multiply-add and the chain is bitwise that of scanOffset.
func laneRow(xs, ys [][4]float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	ys = ys[:len(xs)]
	for i := range xs {
		x, y := &xs[i], &ys[i]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	return s0, s1, s2, s3
}

// rowGrid is the part of one offset's scan that a row kernel walks in
// one call: r2 blocks st2 elements apart, each of r1 rows st1 elements
// apart, each row n elements long. Rows are visited block by block,
// row by row, which is the odometer's order.
type rowGrid struct{ n, r1, st1, r2, st2 int }

// laneRows folds every row of g through laneRow, xs and ys being the
// planes from the grid's first base points on.
func laneRows(xs, ys [][4]float64, g rowGrid, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	for b := range g.r2 {
		o := b * g.st2
		for range g.r1 {
			s0, s1, s2, s3 = laneRow(xs[o:][:g.n], ys[o:][:g.n], s0, s1, s2, s3)
			o += g.st1
		}
	}
	return s0, s1, s2, s3
}

// scanOffsetLanes is scanOffset over the interleaved planes il of
// arrays of one shape, one plane per lane group: one group, or two
// when cpufeat.AVX2 is set. It folds (z(x) − z(x+off))² of every
// in-bounds base point x into each lane's own running chain sum[l],
// visiting base points in the same row-major order, and adds the
// (shared) pair count. Trailing axes the offset leaves whole (zero
// offset component) lie contiguous in memory, so they fold into the
// row: the scan walks rows of axis m and everything after it, and
// counts rows·n pairs once. The row kernel walks axes m−1 and m−2;
// the odometer here steps the axes above them.
func scanOffsetLanes(il [][][4]float64, dims, strides []int, off []int32, sc *scanScratch, sum *[scanLanes]float64, cnt *int64) {
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
	m := nd - 1
	for m > 0 && off[m] == 0 {
		m--
	}
	g := rowGrid{n: (hi[m] - lo[m]) * strides[m], r1: 1, r2: 1}
	base := lo[m] * strides[m]
	rows := 1
	for k := 0; k < m; k++ {
		base += lo[k] * strides[k]
		rows *= hi[k] - lo[k]
	}
	top := m // the odometer's axes are 0 to top−1
	if top > 0 {
		top--
		g.r1, g.st1 = hi[top]-lo[top], strides[top]
	}
	if top > 0 {
		top--
		g.r2, g.st2 = hi[top]-lo[top], strides[top]
	}
	vector := len(il) == 2
	p, q := il[0], il[len(il)-1]
	s0, s1, s2, s3 := sum[0], sum[1], sum[2], sum[3]
	cur := sc.cur[:top]
	copy(cur, lo[:top])
	for {
		if vector {
			laneRows2(&p[base], &p[base+delta], &q[base], &q[base+delta], g, sum)
		} else {
			s0, s1, s2, s3 = laneRows(p[base:], p[base+delta:], g, s0, s1, s2, s3)
		}
		k := top - 1
		for ; k >= 0; k-- {
			cur[k]++
			base += strides[k]
			if cur[k] < hi[k] {
				break
			}
			cur[k] = lo[k]
			base -= (hi[k] - lo[k]) * strides[k]
		}
		if k < 0 {
			break
		}
	}
	if !vector {
		sum[0], sum[1], sum[2], sum[3] = s0, s1, s2, s3
	}
	*cnt += int64(rows) * int64(g.n)
}

// exactScanLanes runs the serial exact scan with cutoff maxLag over
// lanes (1 to scanLanes arrays, all of the given shape) in lockstep,
// leaving lane l's per-bin sums in ls.sum[l] and the per-bin pair
// counts in ls.cnt. Padding slots of the last lane group repeat that
// group's first lane; their sums, like those of lanes past the last
// group, are scratch. Each lane's sums are bitwise those of
// exactScanData on that lane alone. With AVX2 both groups share every
// pass; otherwise each group is a whole scan of its own, so its plane
// alone is walked once per offset.
func exactScanLanes(lanes [][]float64, shape []int, maxLag int, ls *laneScratch) {
	nd := len(shape)
	ls.reset(nd, maxLag)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		ls.strides[k] = acc
		acc *= shape[k]
	}
	il := ls.interleave(lanes, acc)
	bins := offsetsByBinCached(nd, maxLag)
	step := 1
	if cpufeat.AVX2 {
		step = 2
	}
	for g := 0; g < len(il); g += step {
		part := il[g:min(g+step, len(il))]
		for b, offs := range bins {
			var s [scanLanes]float64
			var c int64
			for p := 0; p < len(offs); p += nd {
				scanOffsetLanes(part, shape, ls.strides, offs[p:p+nd], &ls.sc, &s, &c)
			}
			for l := range 4 * len(part) {
				ls.sum[4*g+l][b] = s[l]
			}
			ls.cnt[b] = c
		}
	}
}

// windowRanges is LocalRangeKernel's batch solve: the fitted variogram
// range of each window of ws (one sweep batch, at most
// stat.BatchWidth windows) into vals, with keep[i] false for skipped
// windows — clipped below 4 in any extent, or constant. Kept windows
// are grouped by shape and scanned scanLanes at a time (exact scan,
// serially: the batches themselves are the parallel axis); the fits
// then run per window. On failure it returns the error of the lowest
// failing window index.
func windowRanges(ws []*field.Field, vals []float64, keep []bool, opts Options) error {
	for i, w := range ws {
		vals[i] = 0
		keep[i] = w.MinDim() >= 4 && w.HasVariance()
	}
	var done [stat.BatchWidth]bool
	ls := laneScratchPool.Get().(*laneScratch)
	defer laneScratchPool.Put(ls)
	errAt := len(ws)
	var firstErr error
	for i := range ws {
		if !keep[i] || done[i] {
			continue
		}
		// Gather up to scanLanes unscanned windows shaped like ws[i], in
		// index order.
		var idx [scanLanes]int
		var data [scanLanes][]float64
		shape := ws[i].Shape
		n := 0
		for j := i; j < len(ws) && n < scanLanes; j++ {
			if keep[j] && !done[j] && slices.Equal(ws[j].Shape, shape) {
				done[j] = true
				idx[n], data[n] = j, ws[j].Data
				n++
			}
		}
		maxLag := opts.MaxLag
		if maxLag <= 0 || maxLag > ws[i].MinDim()/2 {
			maxLag = ws[i].MinDim() / 2
		}
		exactScanLanes(data[:n], shape, maxLag, ls)
		for l, j := range idx[:n] {
			m, err := Fit(collectInto(&ls.emp, ls.sum[l], ls.cnt))
			if err != nil {
				if j < errAt {
					errAt, firstErr = j, err
				}
				keep[j] = false
				continue
			}
			vals[j] = m.Range
		}
	}
	return firstErr
}
