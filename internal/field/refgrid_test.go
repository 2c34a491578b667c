package field

// Field replaced a dedicated 2D container whose summary, window,
// tiling and binary writer every historical statistic and file was
// produced with. This file keeps those implementations verbatim as
// references, on a minimal copy of the old row-major type, so the
// tests can assert that Field reproduces them bit for bit and byte for
// byte.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// refGrid is the historical dense 2D field: element (r, c) lives at
// Data[r*Cols+c].
type refGrid struct {
	Rows, Cols int
	Data       []float64
}

func newRefGrid(rows, cols int) *refGrid {
	return &refGrid{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

func (g *refGrid) Len() int { return g.Rows * g.Cols }

func (g *refGrid) Row(r int) []float64 { return g.Data[r*g.Cols : (r+1)*g.Cols] }

// field views g as a rank-2 field, sharing its data.
func (g *refGrid) field() *Field {
	return &Field{Shape: []int{g.Rows, g.Cols}, Data: g.Data}
}

// Window copies the rectangle with top-left corner (r0, c0) and the
// given extent, clipped to the grid.
func (g *refGrid) Window(r0, c0, rows, cols int) *refGrid {
	if r0 < 0 || c0 < 0 || r0 >= g.Rows || c0 >= g.Cols {
		panic(fmt.Sprintf("grid: window origin (%d,%d) outside %dx%d", r0, c0, g.Rows, g.Cols))
	}
	if r0+rows > g.Rows {
		rows = g.Rows - r0
	}
	if c0+cols > g.Cols {
		cols = g.Cols - c0
	}
	w := newRefGrid(rows, cols)
	for r := 0; r < rows; r++ {
		copy(w.Row(r), g.Data[(r0+r)*g.Cols+c0:(r0+r)*g.Cols+c0+cols])
	}
	return w
}

// TileOrigins returns the top-left corner of every h×h tile.
func (g *refGrid) TileOrigins(h int) [][2]int {
	if h <= 0 {
		panic("grid: non-positive tile size")
	}
	origins := make([][2]int, 0, g.NumTiles(h))
	for r0 := 0; r0 < g.Rows; r0 += h {
		for c0 := 0; c0 < g.Cols; c0 += h {
			origins = append(origins, [2]int{r0, c0})
		}
	}
	return origins
}

// NumTiles returns how many h×h tiles cover the grid.
func (g *refGrid) NumTiles(h int) int {
	return ((g.Rows + h - 1) / h) * ((g.Cols + h - 1) / h)
}

// Summary computes min/max/mean/variance in one pass (Welford).
func (g *refGrid) Summary() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	if g.Len() == 0 {
		return Stats{}
	}
	var mean, m2 float64
	for i, v := range g.Data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	s.Mean = mean
	s.Variance = m2 / float64(g.Len())
	s.ValueRange = s.Max - s.Min
	return s
}

// WriteBinary writes the grid as a little-endian stream: two uint32
// dimensions followed by rows*cols float64 values.
func (g *refGrid) WriteBinary(w io.Writer) error {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.Rows))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.Cols))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8*g.Cols)
	for r := 0; r < g.Rows; r++ {
		row := g.Row(r)
		for c, v := range row {
			binary.LittleEndian.PutUint64(buf[8*c:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePGM renders the grid as an 8-bit PGM image (min..max stretched
// to 0..255).
func (g *refGrid) WritePGM(w io.Writer) error {
	s := g.Summary()
	scale := 0.0
	if s.ValueRange > 0 {
		scale = 255 / s.ValueRange
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", g.Cols, g.Rows); err != nil {
		return err
	}
	buf := make([]byte, g.Cols)
	for r := 0; r < g.Rows; r++ {
		row := g.Row(r)
		for c, v := range row {
			buf[c] = byte(math.Round((v - s.Min) * scale))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
