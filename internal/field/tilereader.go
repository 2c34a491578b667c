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
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	st     []int // element strides, last dimension fastest
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
		st:    stridesOf(shape, make([]int, len(shape))),
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
// transform-pool accounting. On-disk-contiguous runs are merged: the
// largest fully covered suffix of axes (plus the first partial axis
// above it) is read per pread, so an axis-0 slab of a 3D file is a
// single sequential read.
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
	// Largest suffix of axes the box fully covers: everything from
	// runAxis down is one contiguous span per outer index.
	sfull := d
	for sfull > 0 && ext[sfull-1] == t.shape[sfull-1] {
		sfull--
	}
	runAxis := sfull - 1
	run := n
	if runAxis >= 0 {
		run = ext[runAxis]
		for k := sfull; k < d; k++ {
			run *= t.shape[k]
		}
	}
	bp := acquireStaging()
	defer releaseStaging(bp)
	var odo [8]int
	outer := odo[:0]
	if runAxis > 0 {
		outer = odo[:runAxis]
	}
	dstOff := 0
	for {
		src := 0
		if runAxis >= 0 {
			src = lo[runAxis] * t.st[runAxis]
			for k := 0; k < runAxis; k++ {
				src += (lo[k] + outer[k]) * t.st[k]
			}
		}
		if err := t.readRange(dst.Data[dstOff:dstOff+run], src, *bp); err != nil {
			return err
		}
		dstOff += run
		k := len(outer) - 1
		for ; k >= 0; k-- {
			outer[k]++
			if outer[k] < ext[k] {
				break
			}
			outer[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return nil
}

// ReadRange fills dst with the len(dst) elements starting at flat
// row-major offset start, widened to float64 on the float32 lane — the
// span-access lane the streaming pair sampler reads its endpoints
// through. Callers pass a pooled buffer, as with ReadBlock.
func (t *TileReader) ReadRange(dst []float64, start int) error {
	if start < 0 || start > t.n || len(dst) > t.n-start {
		return fmt.Errorf("field: range [%d,%d) outside %d elements", start, start+len(dst), t.n)
	}
	bp := acquireStaging()
	defer releaseStaging(bp)
	return t.readRange(dst, start, *bp)
}

// readRange fills dst with the run of elements starting at flat element
// offset src, decoding (and widening, on the float32 lane) through the
// staging buffer.
func (t *TileReader) readRange(dst []float64, src int, buf []byte) error {
	if t.f32 {
		off := t.off + int64(src)*4
		for len(dst) > 0 {
			c := len(buf) / 4
			if c > len(dst) {
				c = len(dst)
			}
			if _, err := t.r.ReadAt(buf[:4*c], off); err != nil {
				return fmt.Errorf("field: block read: %w", err)
			}
			widen32(dst[:c], buf[:4*c])
			dst = dst[c:]
			off += int64(4 * c)
		}
		return nil
	}
	off := t.off + int64(src)*8
	for len(dst) > 0 {
		c := len(buf) / 8
		if c > len(dst) {
			c = len(dst)
		}
		if _, err := t.r.ReadAt(buf[:8*c], off); err != nil {
			return fmt.Errorf("field: block read: %w", err)
		}
		for i := 0; i < c; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		dst = dst[c:]
		off += int64(8 * c)
	}
	return nil
}

// widen32 decodes the little-endian float32s of src into dst, two per
// 8-byte load (≈0.6× the time of one 4-byte load each on amd64).
func widen32(dst []float64, src []byte) {
	src = src[:4*len(dst)]
	i := 0
	for ; i+1 < len(dst); i += 2 {
		u := binary.LittleEndian.Uint64(src[4*i:])
		dst[i] = float64(math.Float32frombits(uint32(u)))
		dst[i+1] = float64(math.Float32frombits(uint32(u >> 32)))
	}
	if i < len(dst) {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// At reads the single element at the given flat row-major offset — the
// reference value the sharded spectral variogram shifts its blocks by.
func (t *TileReader) At(flat int) (float64, error) {
	if flat < 0 || flat >= t.n {
		return 0, fmt.Errorf("field: flat index %d outside %d elements", flat, t.n)
	}
	var b [8]byte
	if t.f32 {
		if _, err := t.r.ReadAt(b[:4], t.off+int64(flat)*4); err != nil {
			return 0, fmt.Errorf("field: point read: %w", err)
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[:]))), nil
	}
	if _, err := t.r.ReadAt(b[:8], t.off+int64(flat)*8); err != nil {
		return 0, fmt.Errorf("field: point read: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

// ReadAll materializes the whole field in its stored lane — the slurp
// path the analyzer takes when the file fits the memory budget after
// all. Exactly one returned field is non-nil, as in ReadAnyLimit.
func (t *TileReader) ReadAll() (*Field, *Field32, error) {
	return readLane(io.NewSectionReader(t.r, t.off, t.PayloadBytes()), t.shape, t.f32)
}
