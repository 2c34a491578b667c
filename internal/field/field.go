// Package field provides the dimension-generic dense scalar field the
// whole pipeline is built on: one contiguous row-major array plus a
// shape. The generators, statistics, codecs, and orchestration layers
// all produce and consume it, so a windowed statistic or a registry
// lookup is written once and works for any rank and either element
// lane: Field (float64) and Field32 (float32) are two instantiations
// of the one generic type Of.
//
// Layout: the last dimension varies fastest, so a rank-2 field is
// row-major (element (r, c) at Data[r*cols+c]) and a rank-3 field
// follows Miranda's (nz, ny, nx) slab order with x fastest.
package field

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// stagingPool recycles the fixed 32 KiB byte buffers every payload
// reader and the tile reader stage their I/O through, so concurrent
// parses (the service upload path, parallel tile streams) stop
// allocating a staging slice per call.
var stagingPool = sync.Pool{New: func() any {
	b := make([]byte, 8*4096)
	return &b
}}

func acquireStaging() *[]byte  { return stagingPool.Get().(*[]byte) }
func releaseStaging(b *[]byte) { stagingPool.Put(b) }

// Of is a dense scalar field of arbitrary rank on the element lane T.
// Shape lists the extents slowest-varying first; element
// (i_0, …, i_{d-1}) lives at Data[((i_0·Shape[1]+i_1)·Shape[2]+i_2)·…].
// The zero value is an empty rank-0 field. Statistics and error
// metrics accumulate in float64 on either lane.
type Of[T Elem] struct {
	Shape []int
	Data  []T
}

// Field is the float64 lane, the oracle every float32 analysis path
// is pinned against.
type Field = Of[float64]

// Field32 is the float32 compute lane: half the bytes per element,
// matching what the paper's datasets (Miranda, Hurricane, NYX) store
// on disk and what SZ/ZFP-style compressors consume.
type Field32 = Of[float32]

// New returns a zero-filled float64 field with the given shape.
func New(shape ...int) *Field { return newOf[float64](shape) }

// New32 returns a zero-filled float32 field with the given shape.
func New32(shape ...int) *Field32 { return newOf[float32](shape) }

func newOf[T Elem](shape []int) *Of[T] {
	n, err := shapeProduct(shape)
	if err != nil {
		panic(err.Error())
	}
	return &Of[T]{Shape: append([]int(nil), shape...), Data: make([]T, n)}
}

// FromData wraps an existing flat slice; it does not copy. The slice
// length must equal the product of the shape.
func FromData[T Elem](shape []int, data []T) (*Of[T], error) {
	n, err := shapeProduct(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("field: data length %d != product of shape %v", len(data), shape)
	}
	return &Of[T]{Shape: append([]int(nil), shape...), Data: data}, nil
}

// FromGrid and FromVolume return f unchanged. They exist only so call
// sites written when the generators returned a separate 2D/3D container
// keep compiling unedited: the benchmark module's (bench/sweep.go:54 and
// bench/stream.go:47) and the pinned statistics golden test
// (internal/core/golden_test.go).
func FromGrid(f *Field) *Field { return f }

// FromVolume returns f unchanged; see FromGrid.
func FromVolume(f *Field) *Field { return f }

// NDim returns the rank.
func (f *Of[T]) NDim() int { return len(f.Shape) }

// Len returns the number of elements.
func (f *Of[T]) Len() int {
	n := 1
	for _, s := range f.Shape {
		n *= s
	}
	return n
}

// SizeBytes returns the uncompressed size in bytes: 8 per element on
// the float64 lane, 4 on the float32 lane.
func (f *Of[T]) SizeBytes() int { return f.Len() * ElemBytes[T]() }

// MinDim returns the smallest extent (0 for a rank-0 field).
func (f *Of[T]) MinDim() int {
	if len(f.Shape) == 0 {
		return 0
	}
	return slices.Min(f.Shape)
}

// Strides returns the element stride of each dimension (last is 1).
func (f *Of[T]) Strides() []int {
	return stridesOf(f.Shape, make([]int, len(f.Shape)))
}

// At returns the element at the given index tuple.
func (f *Of[T]) At(idx ...int) T {
	return f.Data[f.flatIndex(idx)]
}

// Set assigns the element at the given index tuple.
func (f *Of[T]) Set(v T, idx ...int) {
	f.Data[f.flatIndex(idx)] = v
}

// flatIndex maps an index tuple to its row-major offset, panicking on
// rank mismatch (bounds are left to the slice access).
func (f *Of[T]) flatIndex(idx []int) int {
	if len(idx) != len(f.Shape) {
		panic(fmt.Sprintf("field: index rank %d != field rank %d", len(idx), len(f.Shape)))
	}
	flat := 0
	for k, i := range idx {
		flat = flat*f.Shape[k] + i
	}
	return flat
}

// Clone returns a deep copy.
func (f *Of[T]) Clone() *Of[T] {
	out := &Of[T]{Shape: append([]int(nil), f.Shape...), Data: make([]T, len(f.Data))}
	copy(out.Data, f.Data)
	return out
}

// Widen returns a float64 copy of f; widening a float32 is exact.
func (f *Of[T]) Widen() *Field { return convert[float64](f) }

// Narrow returns a float32 copy of f, rounding each element to
// nearest: the inverse of Widen up to that rounding.
func (f *Of[T]) Narrow() *Field32 { return convert[float32](f) }

func convert[D, S Elem](f *Of[S]) *Of[D] {
	out := &Of[D]{Shape: append([]int(nil), f.Shape...), Data: make([]D, len(f.Data))}
	for i, v := range f.Data {
		out.Data[i] = D(v)
	}
	return out
}

// Summary computes min/max/mean/variance in one float64-accumulated
// pass (Welford).
func (f *Of[T]) Summary() Stats {
	if len(f.Data) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var mean, m2 float64
	for i, e := range f.Data {
		v := float64(e)
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
	s.Variance = m2 / float64(len(f.Data))
	s.ValueRange = s.Max - s.Min
	return s
}

// SameShape reports whether two fields agree in rank and extents.
func (f *Of[T]) SameShape(o *Of[T]) bool {
	return slices.Equal(f.Shape, o.Shape)
}

// MaxAbsDiff returns max|f-o| (in float64) over all elements; shapes
// must agree. A position where exactly one side is NaN differs by
// +Inf; two NaNs, like two equal infinities, do not differ, as a codec
// stores non-finite samples exactly.
func (f *Of[T]) MaxAbsDiff(o *Of[T]) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	var m float64
	for i, a := range f.Data {
		b := o.Data[i]
		if d := math.Abs(float64(a) - float64(b)); !(d <= m) {
			if d == d {
				m = d
			} else if (a != a) != (b != b) {
				return math.Inf(1), nil
			}
		}
	}
	return m, nil
}

// MSE returns the mean squared error between two equally shaped fields.
func (f *Of[T]) MSE(o *Of[T]) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	if len(f.Data) == 0 {
		return 0, nil
	}
	var sum float64
	for i, a := range f.Data {
		d := float64(a) - float64(o.Data[i])
		sum += d * d
	}
	return sum / float64(len(f.Data)), nil
}

// Window copies the hypercube with the given origin corner and edge h,
// clipped to the field, so callers tiling a non-multiple field receive
// ragged edge windows. An origin outside the field panics.
func (f *Of[T]) Window(origin []int, h int) *Of[T] {
	return f.WindowInto(new(Of[T]), origin, h)
}

// WindowInto is Window extracting into dst, reusing dst's shape and
// data storage when their capacities allow — the zero-allocation form
// the windowed statistics feed from a per-worker pool. It returns dst.
func (f *Of[T]) WindowInto(dst *Of[T], origin []int, h int) *Of[T] {
	dst.Shape, dst.Data = windowIntoData(f.Shape, f.Data, dst.Shape, dst.Data, origin, h)
	return dst
}

// WindowIntoWide is WindowInto into a float64 field, widening each
// element during the copy. The windowed statistics use it to run their
// small per-window solves in oracle precision without ever
// materializing a full-size float64 copy of a float32 field.
func (f *Of[T]) WindowIntoWide(dst *Field, origin []int, h int) *Field {
	dst.Shape, dst.Data = windowIntoData(f.Shape, f.Data, dst.Shape, dst.Data, origin, h)
	return dst
}

// TileOrigins returns the origin corner of every h-edged tile covering
// the field in lexicographic (slowest-dimension-first) order: for a
// rank-2 field, row by row of tiles.
func (f *Of[T]) TileOrigins(h int) [][]int {
	if h <= 0 {
		panic("field: non-positive tile size")
	}
	d := len(f.Shape)
	if d == 0 || f.Len() == 0 {
		return nil
	}
	origins := make([][]int, 0, f.NumTiles(h))
	cur := make([]int, d)
	for {
		origins = append(origins, append([]int(nil), cur...))
		k := d - 1
		for ; k >= 0; k-- {
			cur[k] += h
			if cur[k] < f.Shape[k] {
				break
			}
			cur[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return origins
}

// NumTiles returns how many h-edged tiles (including clipped edge
// tiles) cover the field.
func (f *Of[T]) NumTiles(h int) int {
	n := 1
	for _, s := range f.Shape {
		n *= (s + h - 1) / h
	}
	return n
}

// Binary format. Rank-2 float64 fields use the legacy 2D layout (two
// uint32 dimensions + float64 payload, little endian), so files written
// before the rank-generic format still read. Other ranks use a tagged
// layout: the magic "LCF1", a uint32 rank word, the uint32 extents,
// then the payload. ReadBinary sniffs the magic and accepts both.
//
// The float32 lane sets f32LaneFlag in the rank word (rank stays in
// the low bits) and stores a float32 payload; WriteBinary emits it on
// the float32 lane for every rank, including 2. Readers predating the flag
// reject such files with "unreasonable rank" rather than misreading
// them, and legacy-2D/float64 detection is unchanged.

var magic = [4]byte{'L', 'C', 'F', '1'}

// f32LaneFlag marks a float32 payload in the LCF1 rank word. The flag
// sits far above the 1..8 rank range, so any flagged word read by an
// older binary fails rank validation instead of decoding garbage.
const f32LaneFlag = 0x00010000

// maxElems is the absolute element-count ceiling of ReadBinary: even a
// well-formed header may not ask for more than 2^30 elements (8 GiB of
// float64), so a crafted 8-byte header can never drive a larger
// allocation. Callers serving untrusted uploads pass a much smaller
// cap through ReadBinaryLimit.
const maxElems = 1 << 30

// validateShape checks a decoded header shape before anything is
// allocated: every extent must be strictly positive (a zero extent is
// a malformed header, not an empty field — no writer produces one) and
// bounded by limit elements, and the running element product must stay
// under limit too, which also keeps it far from int64 overflow (each
// factor and every prefix product is <= 2^30). Returns the element
// count.
func validateShape(shape []int, limit int) (int, error) {
	if limit <= 0 || limit > maxElems {
		limit = maxElems
	}
	n := 1
	for k, s := range shape {
		if s <= 0 || s > limit {
			return 0, fmt.Errorf("field: unreasonable extent in %v", shape[:k+1])
		}
		n *= s
		if n > limit {
			return 0, fmt.Errorf("field: shape %v exceeds %d-element cap", shape[:k+1], limit)
		}
	}
	return n, nil
}

// WriteBinary writes the field in the format described above. It
// rejects every shape the readers reject (a rank outside 1–8, an
// extent <= 0, more elements than the 2^30 ceiling) and data whose
// length is not the shape's element count, so whatever it writes reads
// back.
func (f *Of[T]) WriteBinary(w io.Writer) error {
	if d := len(f.Shape); d < 1 || d > 8 {
		return fmt.Errorf("field: rank %d not writable", d)
	}
	if n, err := validateShape(f.Shape, 0); err != nil {
		return err
	} else if n != len(f.Data) {
		return fmt.Errorf("field: data length %d != product of shape %v", len(f.Data), f.Shape)
	}
	// The legacy 2D header is just the two extents; the tagged one
	// prefixes the extents with the magic and the rank word.
	f32 := ElemBytes[T]() == 4
	hdr := make([]byte, 0, 8+4*len(f.Shape))
	if f32 || len(f.Shape) != 2 {
		word := uint32(len(f.Shape))
		if f32 {
			word |= f32LaneFlag
		}
		hdr = binary.LittleEndian.AppendUint32(append(hdr, magic[:]...), word)
	}
	for _, s := range f.Shape {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(s))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	bp := acquireStaging()
	defer releaseStaging(bp)
	for data := f.Data; len(data) > 0; {
		chunk := data[:min(len(data), len(*bp)/8)]
		data = data[len(chunk):]
		buf := (*bp)[:0]
		for _, v := range chunk {
			if f32 {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePGM renders a rank-2 field as an 8-bit binary PGM image (min..max
// stretched to 0..255), handy for eyeballing fields as in the paper's
// Figure 2. Other ranks are an error.
func (f *Of[T]) WritePGM(w io.Writer) error {
	if len(f.Shape) != 2 {
		return fmt.Errorf("field: PGM needs a rank-2 field, got shape %v", f.Shape)
	}
	rows, cols := f.Shape[0], f.Shape[1]
	s := f.Summary()
	scale := 0.0
	if s.ValueRange > 0 {
		scale = 255 / s.ValueRange
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", cols, rows); err != nil {
		return err
	}
	buf := make([]byte, cols)
	for r := 0; r < rows; r++ {
		for c, v := range f.Data[r*cols : (r+1)*cols] {
			buf[c] = byte(math.Round((float64(v) - s.Min) * scale))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary reads a field written by WriteBinary, detecting the layout
// from the header, with the default 2^30-element allocation cap.
func ReadBinary(r io.Reader) (*Field, error) {
	return ReadBinaryLimit(r, 0)
}

// ReadBinaryLimit is ReadBinary with an explicit allocation budget:
// the header's claimed element count must not exceed maxElements
// (values <= 0 or above the 2^30 absolute ceiling fall back to that
// ceiling). The shape is fully validated — positive extents, per-extent
// and running-product caps, no int overflow — before a single payload
// byte is allocated, so an untrusted upload whose 8-byte header claims
// a multi-GB field costs nothing but the header read. This is the
// entry point the corrcompd upload path uses, with its budget derived
// from the configured request-body limit.
func ReadBinaryLimit(r io.Reader, maxElements int) (*Field, error) {
	shape, f32, _, err := readHeaderFrom(r, maxElements)
	if err != nil {
		return nil, err
	}
	// A float32 payload is widened during the chunked read: only the
	// float64 destination is ever materialized, not a full float32 copy
	// first — the staging slice is the transient.
	f := New(shape...)
	if err := readPayload(r, f.Data, f32); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadAnyLimit reads either compute lane under the same allocation
// budget, preserving the lane the file was written in: exactly one of
// the returned fields is non-nil — *Field for legacy-2D and untagged
// LCF1 (float64) layouts, *Field32 when the rank word carries
// f32LaneFlag. Callers that only speak float64 use ReadBinaryLimit,
// which widens transparently; lane-aware callers (the service upload
// path, corrcomp -f32) dispatch on which pointer is set.
func ReadAnyLimit(r io.Reader, maxElements int) (*Field, *Field32, error) {
	shape, f32, _, err := readHeaderFrom(r, maxElements)
	if err != nil {
		return nil, nil, err
	}
	return readLane(r, shape, f32)
}

// ReadBinary32 reads a float32-lane field written by
// (*Field32).WriteBinary, with the default allocation cap. Files in
// either float64 layout are rejected — use ReadAnyLimit to accept any
// lane.
func ReadBinary32(r io.Reader) (*Field32, error) {
	return ReadBinary32Limit(r, 0)
}

// ReadBinary32Limit is ReadBinary32 with an explicit element budget
// (same semantics as ReadBinaryLimit).
func ReadBinary32Limit(r io.Reader, maxElements int) (*Field32, error) {
	f, f32, err := ReadAnyLimit(r, maxElements)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return nil, fmt.Errorf("field: float64-lane file where float32 expected")
	}
	return f32, nil
}

// readLane reads the payload of a validated header on the lane the
// header declares: exactly one returned field is non-nil.
func readLane(r io.Reader, shape []int, f32 bool) (*Field, *Field32, error) {
	if f32 {
		f := New32(shape...)
		if err := readPayload(r, f.Data, true); err != nil {
			return nil, nil, err
		}
		return nil, f, nil
	}
	f := New(shape...)
	if err := readPayload(r, f.Data, false); err != nil {
		return nil, nil, err
	}
	return f, nil, nil
}

// readHeaderFrom consumes and validates one field header from r,
// returning the decoded shape, whether the payload is the float32 lane,
// and how many header bytes were consumed (the payload's byte offset
// for random-access readers). Shapes are fully validated against
// maxElements before the caller allocates anything.
func readHeaderFrom(r io.Reader, maxElements int) (shape []int, f32 bool, hdrLen int, err error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, false, 0, fmt.Errorf("field: short header: %w", err)
	}
	if hdr[0] == magic[0] && hdr[1] == magic[1] && hdr[2] == magic[2] && hdr[3] == magic[3] {
		word := binary.LittleEndian.Uint32(hdr[4:])
		f32 = word&f32LaneFlag != 0
		d := int(word &^ uint32(f32LaneFlag))
		if d < 1 || d > 8 {
			return nil, false, 0, fmt.Errorf("field: unreasonable rank %d", d)
		}
		dims := make([]byte, 4*d)
		if _, err := io.ReadFull(r, dims); err != nil {
			return nil, false, 0, fmt.Errorf("field: short shape: %w", err)
		}
		shape = make([]int, d)
		for k := range shape {
			shape[k] = int(binary.LittleEndian.Uint32(dims[4*k:]))
		}
		if _, err := validateShape(shape, maxElements); err != nil {
			return nil, false, 0, err
		}
		return shape, f32, 8 + 4*d, nil
	}
	// Legacy 2D layout: the 8 bytes already read are the dimensions.
	rows := int(binary.LittleEndian.Uint32(hdr[0:]))
	cols := int(binary.LittleEndian.Uint32(hdr[4:]))
	if _, err := validateShape([]int{rows, cols}, maxElements); err != nil {
		return nil, false, 0, err
	}
	return []int{rows, cols}, false, 8, nil
}

// readPayload fills data from samples stored 4 bytes wide when f32 is
// set and 8 bytes wide otherwise, converting each to T (widening a
// float32 is exact), chunk by chunk through the pooled staging slice.
func readPayload[T Elem](r io.Reader, data []T, f32 bool) error {
	bp := acquireStaging()
	defer releaseStaging(bp)
	w := 8
	if f32 {
		w = 4
	}
	for len(data) > 0 {
		chunk := data[:min(len(data), len(*bp)/w)]
		data = data[len(chunk):]
		buf := (*bp)[:w*len(chunk)]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("field: short body: %w", err)
		}
		if f32 {
			for i := range chunk {
				chunk[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
			}
		} else {
			for i := range chunk {
				chunk[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
			}
		}
	}
	return nil
}
