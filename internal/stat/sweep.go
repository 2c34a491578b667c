package stat

// The window sweep behind Windows and Run. A sweep walks h-aligned
// tiles of its Source: an in-RAM field is one zero-copy tile, and a
// TileReader is read tile by tile under a byte budget into one pooled
// transform buffer, so tile bytes count toward the fft pool's peak
// gauge that the budget is enforced against. Each run of extracted
// windows goes to every evaluator of the sweep. Tiles are h-aligned,
// so a window's clipped content does not depend on the tiling, and
// results are scattered by global window index before compaction, so
// their order does not depend on tiles or worker count: a streamed
// statistic is bit-identical to the in-RAM one.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// BatchWidth is the number of windows a sweep hands its evaluators at
// once, so a kernel can evaluate several equal-shaped windows in one
// pass. Results do not depend on it.
const BatchWidth = 8

// batchEval evaluates a run of at most BatchWidth extracted windows,
// writing window i's value to vals[i] and whether to keep it to keep[i];
// on failure it returns the error of its lowest failing window. All
// evaluators of a sweep share ws, so none may write to it.
type batchEval func(ws []*field.Field, vals []float64, keep []bool) error

// batch is the pooled scratch of one run, so that steady state
// allocates no window storage.
type batch struct {
	ws   [BatchWidth]*field.Field
	org  []int
	vals [BatchWidth]float64
	keep [BatchWidth]bool
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// sweep evaluates every h-window of src (sel == nil), or exactly the
// windows whose global lexicographic indices appear in sel, through
// every evaluator, extracting each window once (widened exactly on the
// float32 lane) and reading each tile holding a selected window once.
// Within a tile, windows go out in runs of up to BatchWidth in window
// order or sel order, and vals[e] holds evaluator e's kept values in
// that order. errs[e] is the error of e's lowest failing window in
// sweep order (tiles in plan order); e is then dropped from the later
// runs, and the sweep stops once every evaluator has failed. A sweep
// error (source, window edge, selection, budget, read) goes to every
// evaluator still live, and ctx cancellation to all.
func sweep(ctx context.Context, src Source, h, workers int, sel []int, evals ...batchEval) (vals [][]float64, errs []error) {
	vals = make([][]float64, len(evals))
	errs = make([]error, len(evals))
	stop := func(err error) ([][]float64, []error) {
		for e := range errs {
			if errs[e] == nil {
				errs[e] = err
			}
		}
		return vals, errs
	}
	shape := src.Shape()
	d := len(shape)
	if d == 0 {
		return stop(fmt.Errorf("stream: empty source"))
	}
	if h <= 0 {
		return stop(fmt.Errorf("stream: non-positive window edge %d", h))
	}
	wg := field.NewWindowGrid(shape, h)
	total := wg.Total()
	nres := total
	var pos []int32 // 1-based position in sel, 0 = not selected
	if sel != nil {
		nres = len(sel)
		pos = make([]int32, total)
		for i, g := range sel {
			if g < 0 || g >= total {
				return stop(fmt.Errorf("stream: window index %d outside %d windows", g, total))
			}
			pos[g] = int32(i + 1)
		}
	}

	// In RAM the field is the one tile, extracted from directly.
	zero := make([]int, d)
	tiles := []field.Tile{{Lo: zero, Hi: shape}}
	block := src.F64
	extract := func(dst *field.Field, origin []int) { block.WindowIntoWide(dst, origin, h) }
	switch {
	case src.Reader != nil:
		// Plan float64 tiles against the tight share of the budget. A
		// positive budget under 16 bytes is one element, not "no budget".
		var budgetElems int64
		if b := src.Stream.BudgetBytes; b > 0 {
			budgetElems = max(1, fft.TightShare(b)/8)
		}
		var err error
		if tiles, err = field.PlanWindowTiles(shape, h, budgetElems); err != nil {
			return stop(err)
		}
		maxBlock := 0
		for _, t := range tiles {
			n := 1
			for k := range t.Lo {
				n *= t.Hi[k] - t.Lo[k]
			}
			maxBlock = max(maxBlock, n)
		}
		buf := fft.AcquireTight[float64](maxBlock)
		defer fft.Release(buf)
		block = &field.Field{Data: buf}
	case src.F32 != nil:
		extract = func(dst *field.Field, origin []int) { src.F32.WindowIntoWide(dst, origin, h) }
	}

	raw, keep := make([][]float64, len(evals)), make([][]bool, len(evals))
	// failAt[e] is evaluator e's lowest failing run, numbered across
	// the whole sweep; later runs skip the evaluator.
	failAt := make([]int, len(evals))
	for e := range evals {
		raw[e], keep[e], failAt[e] = make([]float64, nres), make([]bool, nres), math.MaxInt
	}
	var mu sync.Mutex
	// run lists the current tile's selected windows: their index
	// within the tile and their result slot.
	type pick struct{ j, slot int }
	var run []pick
	cbuf := make([]int, d)
	seq := 0 // runs of the tiles before the current one
	for _, t := range tiles {
		tw := wg.TileWindows(t)
		run = run[:0]
		for j := 0; j < tw.Len(); j++ {
			g, _ := tw.Window(j, cbuf)
			slot := g
			if pos != nil {
				if pos[g] == 0 {
					continue
				}
				slot = int(pos[g]) - 1
			}
			run = append(run, pick{j, slot})
		}
		if len(run) == 0 {
			continue
		}
		if pos != nil {
			slices.SortFunc(run, func(a, b pick) int { return a.slot - b.slot })
		}
		lo := zero
		if src.Reader != nil {
			lo = t.Lo
			if err := src.Reader.ReadBlock(block, t.Lo, t.Hi); err != nil {
				return stop(err)
			}
		}
		nr := (len(run) + BatchWidth - 1) / BatchWidth
		if err := parallel.ForCtx(ctx, nr, workers, func(r int) {
			picks := run[r*BatchWidth : min(r*BatchWidth+BatchWidth, len(run))]
			m := len(picks)
			b := batchPool.Get().(*batch)
			defer batchPool.Put(b)
			if cap(b.org) < d {
				b.org = make([]int, d)
			}
			for i, p := range picks {
				if b.ws[i] == nil {
					b.ws[i] = new(field.Field)
				}
				_, origin := tw.Window(p.j, b.org[:d])
				for k := range origin {
					origin[k] -= lo[k]
				}
				extract(b.ws[i], origin)
			}
			for e, eval := range evals {
				mu.Lock()
				dropped := failAt[e] < seq+r
				mu.Unlock()
				if dropped {
					continue
				}
				if err := eval(b.ws[:m], b.vals[:m], b.keep[:m]); err != nil {
					mu.Lock()
					if seq+r < failAt[e] {
						failAt[e], errs[e] = seq+r, err
					}
					mu.Unlock()
					continue
				}
				for i, p := range picks {
					raw[e][p.slot], keep[e][p.slot] = b.vals[i], b.keep[i]
				}
			}
		}); err != nil {
			clear(errs)
			return stop(err)
		}
		seq += nr
		if !slices.Contains(errs, nil) {
			break
		}
	}
	for e := range evals {
		if errs[e] == nil { // compact in place: kept values only, in order
			vals[e] = raw[e][:0]
			for i, ok := range keep[e] {
				if ok {
					vals[e] = append(vals[e], raw[e][i])
				}
			}
		}
	}
	return vals, errs
}
