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

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// WindowEval evaluates one window: block is the tile's element data,
// rel the window origin relative to the block, h the window edge. The
// (value, keep, error) contract matches parallel.FilterMapErrCtx.
type WindowEval func(block *field.Field, rel []int, h int) (float64, bool, error)

// Windows streams every h-window of tr (sel == nil), or exactly the
// windows whose global lexicographic indices appear in sel, through
// eval, one budget-sized tile at a time. Results come back compacted —
// kept values only — ordered by global window index (sel == nil) or by
// position in sel, which are precisely the fold orders of the in-RAM
// full and sampled window sweeps. Tiles holding no selected window are
// never read.
func Windows(ctx context.Context, tr *field.TileReader, h, workers int, o field.StreamOptions, sel []int, eval WindowEval) ([]float64, error) {
	shape := tr.Shape()
	d := len(shape)
	if d > 8 {
		return nil, fmt.Errorf("stream: rank %d exceeds 8", d)
	}
	// Plan against HALF the byte budget: pooled buffers are accounted by
	// capacity, and a tight acquisition can still carry up to 2× slack
	// from a warm pool — half-budget tiles keep worst-case accounted
	// bytes at the budget, and fresh-pool runs at half of it.
	var budgetElems int64
	if o.BudgetBytes > 0 {
		budgetElems = o.BudgetBytes / 16
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

	for _, t := range tiles {
		tw := wg.TileWindows(t)
		if pos != nil {
			any := false
			var cbuf [8]int
			for j := 0; j < tw.Len() && !any; j++ {
				g, _ := tw.Window(j, cbuf[:d])
				any = pos[g] != 0
			}
			if !any {
				continue
			}
		}
		blo, bhi := field.ExpandHalo(t.Lo, t.Hi, shape, o.Halo)
		if err := tr.ReadBlock(block, blo, bhi); err != nil {
			return nil, err
		}
		if err := parallel.ForErrCtx(ctx, tw.Len(), workers, func(j int) error {
			var obuf [8]int
			g, origin := tw.Window(j, obuf[:d])
			slot := g
			if pos != nil {
				p := pos[g]
				if p == 0 {
					return nil
				}
				slot = int(p) - 1
			}
			for k := 0; k < d; k++ {
				origin[k] -= blo[k]
			}
			v, ok, err := eval(block, origin, h)
			if err != nil {
				return err
			}
			vals[slot], kept[slot] = v, ok
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out := make([]float64, 0, nres)
	for i, ok := range kept {
		if ok {
			out = append(out, vals[i])
		}
	}
	return out, nil
}
