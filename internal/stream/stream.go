// Package stream drives out-of-core window sweeps for the analysis
// statistics. It plans h-aligned tiles against a byte budget
// (field.PlanWindowTiles), pulls each tile through a TileReader into
// one pooled transform buffer — so tile bytes are visible to the fft
// pool's peak accounting, the gauge the memory budget is enforced
// against — evaluates the windows inside each tile on the shared worker
// pool, and returns results compacted in the exact order the in-RAM
// windowed statistics fold them. Because tiles are h-aligned, every
// window's clipped content is identical to its in-RAM extraction, and
// because results are scattered by global window index before
// compaction, the fold order is independent of tile decomposition,
// halo, and worker count: the streamed statistic is bit-identical to
// the in-RAM one.
package stream

import (
	"context"
	"fmt"
	"sync"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// BatchWidth is the number of windows a sweep hands its evaluator at
// once: runs of up to BatchWidth windows let a kernel evaluate several
// equal-shaped windows in one pass. It is fixed; results do not depend
// on it.
const BatchWidth = 4

// BatchEval evaluates a run of at most BatchWidth windows of one tile:
// block is the tile's element data, rels[i] the i-th window's origin
// relative to the block, h the window edge. It writes window i's value
// to vals[i] and whether to keep it to keep[i], and on failure returns
// the error of its lowest failing window.
type BatchEval func(block *field.Field, rels [][]int, h int, vals []float64, keep []bool) error

// batch is the pooled per-run scratch of one BatchEval call.
type batch struct {
	org  [BatchWidth][8]int
	rels [BatchWidth][]int
	vals [BatchWidth]float64
	keep [BatchWidth]bool
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// Windows streams every h-window of tr (sel == nil), or exactly the
// windows whose global lexicographic indices appear in sel, through
// eval, one budget-sized tile at a time; within a tile, the selected
// windows go to eval in runs of up to BatchWidth, in tile order.
// Results come back compacted — kept values only — ordered by global
// window index (sel == nil) or by position in sel, which are precisely
// the fold orders of the in-RAM full and sampled window sweeps. Tiles
// holding no selected window are never read. A failing sweep returns
// the error of the first failing run, tiles taken in plan order.
func Windows(ctx context.Context, tr *field.TileReader, h, workers int, o field.StreamOptions, sel []int, eval BatchEval) ([]float64, error) {
	shape := tr.Shape()
	d := len(shape)
	if d > 8 {
		return nil, fmt.Errorf("stream: rank %d exceeds 8", d)
	}
	// Plan against HALF the byte budget: pooled buffers are accounted by
	// capacity, and a tight acquisition can still carry up to 2× slack
	// from a warm pool — half-budget tiles keep worst-case accounted
	// bytes at the budget, and fresh-pool runs at half of it. A positive
	// budget under 16 bytes is one element, not "no budget".
	var budgetElems int64
	if o.BudgetBytes > 0 {
		budgetElems = max(1, o.BudgetBytes/16)
	}
	tiles, err := field.PlanWindowTiles(shape, h, budgetElems)
	if err != nil {
		return nil, err
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
				return nil, fmt.Errorf("stream: window index %d outside %d windows", g, total)
			}
			pos[g] = int32(i + 1)
		}
	}
	vals := make([]float64, nres)
	kept := make([]bool, nres)

	maxBlock := 0
	for _, t := range tiles {
		blo, bhi := field.ExpandHalo(t.Lo, t.Hi, shape, o.Halo)
		n := 1
		for k := range blo {
			n *= bhi[k] - blo[k]
		}
		if n > maxBlock {
			maxBlock = n
		}
	}
	buf := fft.AcquireTight[float64](maxBlock)
	defer fft.Release(buf)
	block := &field.Field{Data: buf}

	// run lists the current tile's selected windows: their index
	// within the tile and their result slot.
	type pick struct{ j, slot int }
	var run []pick
	for _, t := range tiles {
		tw := wg.TileWindows(t)
		run = run[:0]
		var cbuf [8]int
		for j := 0; j < tw.Len(); j++ {
			g, _ := tw.Window(j, cbuf[:d])
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
		blo, bhi := field.ExpandHalo(t.Lo, t.Hi, shape, o.Halo)
		if err := tr.ReadBlock(block, blo, bhi); err != nil {
			return nil, err
		}
		if err := parallel.ForErrCtx(ctx, (len(run)+BatchWidth-1)/BatchWidth, workers, func(r int) error {
			picks := run[r*BatchWidth : min(r*BatchWidth+BatchWidth, len(run))]
			b := batchPool.Get().(*batch)
			defer batchPool.Put(b)
			for i, p := range picks {
				_, origin := tw.Window(p.j, b.org[i][:d])
				for k := 0; k < d; k++ {
					origin[k] -= blo[k]
				}
				b.rels[i] = origin
			}
			m := len(picks)
			if err := eval(block, b.rels[:m], h, b.vals[:m], b.keep[:m]); err != nil {
				return err
			}
			for i, p := range picks {
				vals[p.slot], kept[p.slot] = b.vals[i], b.keep[i]
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return Compact(vals, kept), nil
}

// Compact returns the values whose keep flag is set, in order.
func Compact(vals []float64, keep []bool) []float64 {
	out := make([]float64, 0, len(vals))
	for i, ok := range keep {
		if ok {
			out = append(out, vals[i])
		}
	}
	return out
}
