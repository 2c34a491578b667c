package variogram

// Lockstep window scan. A window's exact scan folds every pair of a
// distance bin into one serial float64 chain, so a single window's
// inner loop waits on floating-point add latency. LocalRangeKernel
// therefore scans up to scanLanes equal-shaped windows in one pass:
// each lane keeps its own chain, in exactly exactScanData's offset
// order and row-major base-point order, so every lane's Empirical is
// bitwise the one a single-window scan produces, while the lanes'
// independent chains overlap in the pipeline.

import (
	"slices"
	"sync"

	"lossycorr/internal/field"
)

// scanLanes is the number of windows the lockstep scan carries per
// pass.
const scanLanes = 4

// laneScratch is the reusable state of one lockstep scan: the odometer
// of scanOffsetLanes plus each lane's per-bin sums and the shared
// per-bin pair counts.
type laneScratch struct {
	sc      scanScratch
	strides []int
	sum     [scanLanes][]float64
	cnt     []int64
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

// scanOffsetLanes is scanOffset over scanLanes arrays of one shape at
// once: it folds (z(x) − z(x+off))² of every in-bounds base point x
// into each lane's own running chain sum[l], visiting base points in
// the same row-major order, and adds the (shared) pair count once.
func scanOffsetLanes(data *[scanLanes][]float64, dims, strides []int, off []int32, sc *scanScratch, sum *[scanLanes]float64, cnt *int64) {
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
	n := innerHi - innerLo
	a0, a1, a2, a3 := data[0], data[1], data[2], data[3]
	s0, s1, s2, s3 := sum[0], sum[1], sum[2], sum[3]
	c := *cnt
	cur := sc.cur[:nd-1]
	copy(cur, lo[:nd-1])
	for {
		base := innerLo
		for k := 0; k < nd-1; k++ {
			base += cur[k] * strides[k]
		}
		x0, y0 := a0[base:][:n], a0[base+delta:][:n]
		x1, y1 := a1[base:][:n], a1[base+delta:][:n]
		x2, y2 := a2[base:][:n], a2[base+delta:][:n]
		x3, y3 := a3[base:][:n], a3[base+delta:][:n]
		for i := 0; i < n; i++ {
			d0 := x0[i] - y0[i]
			d1 := x1[i] - y1[i]
			d2 := x2[i] - y2[i]
			d3 := x3[i] - y3[i]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		c += int64(n)
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
	sum[0], sum[1], sum[2], sum[3] = s0, s1, s2, s3
	*cnt = c
}

// exactScanLanes runs the serial exact scan with cutoff maxLag over
// lanes (1 to scanLanes arrays, all of the given shape) in lockstep,
// leaving lane l's per-bin sums in ls.sum[l] and the per-bin pair
// counts in ls.cnt. Lanes past len(lanes) repeat lane 0's data; their
// sums are scratch. Each lane's sums are bitwise those of
// exactScanData on that lane alone.
func exactScanLanes(lanes [][]float64, shape []int, maxLag int, ls *laneScratch) {
	nd := len(shape)
	ls.reset(nd, maxLag)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		ls.strides[k] = acc
		acc *= shape[k]
	}
	var data [scanLanes][]float64
	for l := range data {
		data[l] = lanes[0]
		if l < len(lanes) {
			data[l] = lanes[l]
		}
	}
	bins := offsetsByBinCached(nd, maxLag)
	for b, offs := range bins {
		var s [scanLanes]float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			scanOffsetLanes(&data, shape, ls.strides, offs[p:p+nd], &ls.sc, &s, &c)
		}
		for l := range s {
			ls.sum[l][b] = s[l]
		}
		ls.cnt[b] = c
	}
}

// windowRanges is LocalRangeKernel's batch solve: the fitted variogram
// range of each window of ws into vals, with keep[i] false for skipped
// windows — clipped below 4 in any extent, or constant. Kept windows
// are grouped by shape and scanned scanLanes at a time (exact scan,
// serially: the batches themselves are the parallel axis); the fits
// then run per window. On failure it returns the error of the lowest
// failing window index.
func windowRanges(ws []*field.Field, vals []float64, keep []bool, opts Options) error {
	for i, w := range ws {
		vals[i] = 0
		keep[i] = w.MinDim() >= 4 && w.Summary().Variance != 0
	}
	var doneBuf [8]bool
	done := doneBuf[:0]
	if len(ws) <= len(doneBuf) {
		done = doneBuf[:len(ws)]
	} else {
		done = make([]bool, len(ws))
	}
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
			m, err := Fit(collect(ls.sum[l], ls.cnt))
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
