package field

// Tile geometry for the out-of-core streaming statistics. The windowed
// estimators step their window origins by the window edge h, so the
// origin lattice is the "window grid"; a streaming pass partitions that
// grid into h-aligned element-space boxes (tiles) small enough for the
// byte budget, reads each box once, and evaluates the windows inside
// it. Because tiles are h-aligned, every window lies entirely inside
// one tile (clipped only at the field boundary, exactly as in RAM), so
// a window solve sees identical element values whatever the tile
// decomposition — the geometric fact the bit-identity contract of the
// streaming path rests on.

import "fmt"

// Tile is a half-open element-space box [Lo, Hi).
type Tile struct {
	Lo, Hi []int
}

// StreamOptions parameterize the streaming windowed statistics.
type StreamOptions struct {
	// BudgetBytes is the byte budget of an out-of-core statistic: it
	// caps the widened (8 bytes/element) tile block of the window
	// sweep, and the spans, chunks and slabs of the sampled and
	// spectral global variograms. <= 0 means unbounded: one tile, span
	// or slab covering the whole field.
	BudgetBytes int64
}

// PlanWindowTiles partitions the h-aligned window lattice of shape into
// tiles of at most maxElems elements each (<= 0 means one tile covers
// everything). Tiles grow from the last axis toward the first, so
// whenever the budget allows, a tile is a slab of whole axis-0 planes
// and its block read is one sequential I/O. The only failure is a
// budget too small to hold even a single h-window.
func PlanWindowTiles(shape []int, h int, maxElems int64) ([]Tile, error) {
	if h <= 0 {
		return nil, fmt.Errorf("field: non-positive window edge %d", h)
	}
	d := len(shape)
	if d == 0 {
		return nil, fmt.Errorf("field: rank-0 shape has no tiles")
	}
	wc := make([]int, d) // windows per axis
	for k, s := range shape {
		if s <= 0 {
			return nil, fmt.Errorf("field: non-positive extent in shape %v", shape)
		}
		wc[k] = (s + h - 1) / h
	}
	// extent(tw, k): elements tw windows cover on axis k (clip bound).
	extent := func(tw, k int) int64 {
		e := int64(tw) * int64(h)
		if e > int64(shape[k]) {
			e = int64(shape[k])
		}
		return e
	}
	tw := make([]int, d) // tile size in windows per axis
	for k := range tw {
		tw[k] = 1
	}
	elems := func() int64 {
		p := int64(1)
		for k := range tw {
			p *= extent(tw[k], k)
		}
		return p
	}
	if maxElems <= 0 {
		copy(tw, wc)
	} else {
		if elems() > maxElems {
			return nil, fmt.Errorf("field: budget of %d elements cannot hold one %d-window of shape %v",
				maxElems, h, shape)
		}
		for k := d - 1; k >= 0; k-- {
			for tw[k] < wc[k] {
				tw[k]++
				if elems() > maxElems {
					tw[k]--
					break
				}
			}
			if tw[k] < wc[k] {
				break // this axis is split; earlier axes stay at one window
			}
		}
	}
	var tiles []Tile
	cur := make([]int, d) // window coordinate of the tile corner
	for {
		lo := make([]int, d)
		hi := make([]int, d)
		for k := 0; k < d; k++ {
			lo[k] = cur[k] * h
			e := (cur[k] + tw[k]) * h
			if e > shape[k] {
				e = shape[k]
			}
			hi[k] = e
		}
		tiles = append(tiles, Tile{Lo: lo, Hi: hi})
		k := d - 1
		for ; k >= 0; k-- {
			cur[k] += tw[k]
			if cur[k] < wc[k] {
				break
			}
			cur[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return tiles, nil
}

// WindowGrid indexes the h-aligned window lattice of a shape: Counts
// lists windows per axis and the global window index is the
// lexicographic (slowest-axis-first) rank of a window's coordinate —
// exactly the order TileOrigins enumerates, which is the fold order the
// in-RAM windowed statistics use.
type WindowGrid struct {
	Shape  []int
	H      int
	Counts []int
}

// NewWindowGrid builds the window lattice of shape with edge h.
func NewWindowGrid(shape []int, h int) *WindowGrid {
	g := &WindowGrid{Shape: shape, H: h, Counts: make([]int, len(shape))}
	for k, s := range shape {
		g.Counts[k] = (s + h - 1) / h
	}
	return g
}

// Total returns the number of windows, as many as TileOrigins lists.
func (g *WindowGrid) Total() int {
	n := 1
	for _, c := range g.Counts {
		n *= c
	}
	return n
}

// TileWindows indexes the windows whose origins lie inside tile t
// (which must be h-aligned, as produced by PlanWindowTiles).
func (g *WindowGrid) TileWindows(t Tile) *TileWindows {
	d := len(g.Shape)
	tw := &TileWindows{g: g, lo: make([]int, d), n: make([]int, d), total: 1}
	for k := 0; k < d; k++ {
		tw.lo[k] = t.Lo[k] / g.H
		tw.n[k] = (t.Hi[k]+g.H-1)/g.H - tw.lo[k]
		tw.total *= tw.n[k]
	}
	return tw
}

// TileWindows is the window sub-lattice of one tile.
type TileWindows struct {
	g     *WindowGrid
	lo, n []int
	total int
}

// Len returns how many windows the tile holds.
func (tw *TileWindows) Len() int { return tw.total }

// Window decodes the j-th window of the tile (lexicographic within the
// tile) into its global window index and element-space origin; the
// origin is written into buf (length = rank) and returned.
func (tw *TileWindows) Window(j int, buf []int) (global int, origin []int) {
	d := len(tw.n)
	for k := d - 1; k >= 0; k-- {
		buf[k] = tw.lo[k] + j%tw.n[k]
		j /= tw.n[k]
	}
	for k := 0; k < d; k++ {
		global = global*tw.g.Counts[k] + buf[k]
	}
	for k := 0; k < d; k++ {
		buf[k] *= tw.g.H
	}
	return global, buf
}
