package field

// Out-of-core access. TileReader is a random-access view of a field
// file — any of the three on-disk layouts (legacy 2D, LCF1 float64,
// LCF1 float32) — that reads rectangular element blocks on demand
// instead of materializing the volume. It is the storage end of the
// streaming analysis path: the streaming statistics plan h-aligned
// tiles against a byte budget (PlanWindowTiles), pull each tile through
// ReadBlock into a pooled buffer, and fold per-window results with the
// same machinery as the in-RAM path.
//
// Hostile-input posture matches ReadBinaryLimit: the header is fully
// validated (positive extents, element cap, overflow-safe products)
// before anything is allocated, and additionally against the file's
// actual size — a truncated or crafted file whose header claims more
// payload than the bytes behind it is rejected at open, so no block
// read can ever over-allocate or index past the region.

import (
	"fmt"
	"io"
	"os"
)

// TileReader reads rectangular blocks of a field file through an
// io.ReaderAt. Both compute lanes are served: float32 payloads are
// widened during the block copy (float32→float64 is exact), so every
// consumer sees the oracle-lane values the in-RAM WindowIntoWide path
// would produce. Methods are safe for concurrent use when the
// underlying ReaderAt is (os.File and bytes.Reader are).
type TileReader struct {
	r      io.ReaderAt
	closer io.Closer
	shape  []int
	f32    bool
	off    int64 // payload byte offset
	n      int   // total elements
}

// NewTileReader validates the header of a field file presented as a
// size-byte random-access region and returns a reader over its
// payload. maxElements bounds the header's claimed element count
// exactly as in ReadBinaryLimit.
func NewTileReader(r io.ReaderAt, size int64, maxElements int) (*TileReader, error) {
	shape, f32, hdrLen, err := readHeaderFrom(io.NewSectionReader(r, 0, size), maxElements)
	if err != nil {
		return nil, err
	}
	n, err := shapeProduct(shape)
	if err != nil {
		return nil, err
	}
	eb := int64(8)
	if f32 {
		eb = 4
	}
	if size-int64(hdrLen) < int64(n)*eb {
		return nil, fmt.Errorf("field: truncated payload: header claims %d bytes, %d present",
			int64(n)*eb, size-int64(hdrLen))
	}
	return &TileReader{
		r:     r,
		shape: shape,
		f32:   f32,
		off:   int64(hdrLen),
		n:     n,
	}, nil
}

// OpenTileReader opens path for pread-backed tile access. The returned
// reader owns the file; Close releases it.
func OpenTileReader(path string, maxElements int) (*TileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := NewTileReader(f, fi.Size(), maxElements)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.closer = f
	return t, nil
}

// Close releases the underlying file or mapping, if the reader owns one.
func (t *TileReader) Close() error {
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Shape returns a copy of the field's extents, slowest-varying first.
func (t *TileReader) Shape() []int { return append([]int(nil), t.shape...) }

// NDim returns the rank.
func (t *TileReader) NDim() int { return len(t.shape) }

// Len returns the number of elements.
func (t *TileReader) Len() int { return t.n }

// MinDim returns the smallest extent.
func (t *TileReader) MinDim() int {
	m := t.shape[0]
	for _, s := range t.shape[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// Float32Lane reports whether the payload is the float32 lane.
func (t *TileReader) Float32Lane() bool { return t.f32 }

// ElemBytes returns the stored bytes per element (4 or 8).
func (t *TileReader) ElemBytes() int {
	if t.f32 {
		return 4
	}
	return 8
}

// PayloadBytes returns the on-disk payload size.
func (t *TileReader) PayloadBytes() int64 { return int64(t.n) * int64(t.ElemBytes()) }

// ReadBlock reads the half-open box [lo, hi) into dst, reusing dst's
// shape and data storage when capacities allow — callers pass a
// budget-sized pooled buffer so the block bytes show up in the
// transform-pool accounting. Each EachRun run of the box is one read,
// so the whole trailing axes the box covers merge: an axis-0 slab of a
// 3D file is a single sequential read.
func (t *TileReader) ReadBlock(dst *Field, lo, hi []int) error {
	d := len(t.shape)
	if len(lo) != d || len(hi) != d {
		return fmt.Errorf("field: block rank %d/%d != field rank %d", len(lo), len(hi), d)
	}
	if cap(dst.Shape) >= d {
		dst.Shape = dst.Shape[:d]
	} else {
		dst.Shape = make([]int, d)
	}
	ext := dst.Shape
	n := 1
	for k := 0; k < d; k++ {
		if lo[k] < 0 || hi[k] > t.shape[k] || lo[k] >= hi[k] {
			return fmt.Errorf("field: block [%v,%v) outside shape %v", lo, hi, t.shape)
		}
		ext[k] = hi[k] - lo[k]
		n *= ext[k]
	}
	if cap(dst.Data) >= n {
		dst.Data = dst.Data[:n]
	} else {
		dst.Data = make([]float64, n)
	}
	bp := acquireStaging()
	defer releaseStaging(bp)
	var err error
	EachRun(t.shape, lo, ext, nil, ext, func(src, off, n int) bool {
		err = t.readRange(dst.Data[off:off+n], src, *bp)
		return err == nil
	})
	return err
}

// Offset is the type of the element offsets Gather reads: uint16, or
// the destination's own lane when it gathers in place.
type Offset interface{ uint16 | float32 | float64 }

// Gather reads the len(stage) elements starting at flat row-major
// offset start once, as their stored bytes, into stage, and sets each
// dst[x] to element start+offs[x] in dst's lane — the span-access lane
// the streaming pair sampler reads its endpoints through. A float32
// payload is widened exactly into a float64 dst; a float64 payload
// cannot be gathered into float32. offs may be dst itself. Callers pass
// a pooled stage, as with ReadBlock.
func Gather[V Elem, O Offset](t *TileReader, dst []V, offs []O, start int, stage []float64) error {
	n := len(stage)
	if start < 0 || n > t.n-start {
		return fmt.Errorf("field: range [%d,%d) outside %d elements", start, start+n, t.n)
	}
	if ElemBytes[V]() < t.ElemBytes() {
		return fmt.Errorf("field: cannot gather a float64 payload into float32")
	}
	buf := asBytes(stage)[:t.ElemBytes()*n]
	if _, err := t.r.ReadAt(buf, t.off+int64(start)*int64(t.ElemBytes())); err != nil {
		return fmt.Errorf("field: span read: %w", err)
	}
	if t.f32 {
		gatherFrom(dst, offs, asElems[float32](buf), buf)
	} else {
		gatherFrom(dst, offs, asElems[float64](buf), buf)
	}
	return nil
}

// gatherFrom sets dst[x] to src[offs[x]], src being the little-endian
// samples buf holds, decoded in place first on a big-endian host.
func gatherFrom[V, S Elem, O Offset](dst []V, offs []O, src []S, buf []byte) {
	if !nativeLittleEndian {
		decode(src, buf, ElemBytes[S]() == 4)
	}
	for x, o := range offs[:len(dst)] {
		dst[x] = V(src[int(o)])
	}
}

// readRange fills dst with the run of elements starting at flat element
// offset src. On a little-endian host a float64 payload is read
// straight into dst; otherwise it is decoded (and widened, on the
// float32 lane) through the staging buffer.
func (t *TileReader) readRange(dst []float64, src int, buf []byte) error {
	if nativeLittleEndian && !t.f32 {
		if _, err := t.r.ReadAt(asBytes(dst), t.off+int64(src)*8); err != nil {
			return fmt.Errorf("field: block read: %w", err)
		}
		return nil
	}
	w := t.ElemBytes()
	off := t.off + int64(src)*int64(w)
	for len(dst) > 0 {
		c := min(len(buf)/w, len(dst))
		if _, err := t.r.ReadAt(buf[:w*c], off); err != nil {
			return fmt.Errorf("field: block read: %w", err)
		}
		decode(dst[:c], buf[:w*c], t.f32)
		dst = dst[c:]
		off += int64(w * c)
	}
	return nil
}

// ReadAll materializes the whole field in its stored lane — the slurp
// path the analyzer takes when the file fits the memory budget after
// all. Exactly one returned field is non-nil, as in ReadAnyLimit.
func (t *TileReader) ReadAll() (*Field, *Field32, error) {
	return readLane(io.NewSectionReader(t.r, t.off, t.PayloadBytes()), t.shape, t.f32)
}
