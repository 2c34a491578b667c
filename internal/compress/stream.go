package compress

// Stream layout shared by the codecs. Every stream opens with a 4-byte
// magic that tags the codec, rank and lane, the extents as
// little-endian uint32s, and the absolute error bound as float64 bits;
// exact samples are stored at their lane's width.

import (
	"encoding/binary"
	"math"

	"lossycorr/internal/field"
)

// maxElements caps the element count a stream header may declare.
const maxElements = 1 << 30

// Header is the decoded common prefix of a codec stream.
type Header struct {
	Shape  []int
	Len    int // element count, the product of Shape
	AbsErr float64
}

// AppendHeader appends a stream header to buf.
func AppendHeader(buf []byte, magic [4]byte, shape []int, absErr float64) []byte {
	buf = append(buf, magic[:]...)
	for _, s := range shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(absErr))
}

// ParseHeader reads the header of a rank-`rank` stream tagged magic and
// returns it with the bytes that follow. It fails on a short stream,
// another magic, a zero extent, more than maxElements elements, or an
// error bound CheckBound rejects; the element count is checked as it is
// formed, so hostile extents cannot overflow it before a decoder sizes
// anything from it.
func ParseHeader(raw []byte, magic [4]byte, rank int) (Header, []byte, bool) {
	n := 4 + 4*rank + 8
	if len(raw) < n || [4]byte(raw[:4]) != magic {
		return Header{}, nil, false
	}
	h := Header{Shape: make([]int, rank), Len: 1}
	for k := range h.Shape {
		s := int(binary.LittleEndian.Uint32(raw[4+4*k:]))
		if s <= 0 || s > maxElements/h.Len {
			return Header{}, nil, false
		}
		h.Shape[k] = s
		h.Len *= s
	}
	h.AbsErr = math.Float64frombits(binary.LittleEndian.Uint64(raw[4+4*rank:]))
	if CheckBound(h.AbsErr) != nil {
		return Header{}, nil, false
	}
	return h, raw[n:], true
}

// Lane is 0 on the float64 lane and 1 on the float32 lane, the index a
// codec keys its per-lane magic and scratch by.
func Lane[T field.Elem]() int {
	if field.ElemBytes[T]() == 4 {
		return 1
	}
	return 0
}

// AppendValue appends v at its lane's width, little-endian.
func AppendValue[T field.Elem](buf []byte, v T) []byte {
	if field.ElemBytes[T]() == 4 {
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
}

// Value reads a sample written by AppendValue.
func Value[T field.Elem](b []byte) T {
	if field.ElemBytes[T]() == 4 {
		return T(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	}
	return T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
}

// AppendExact appends a uint32 count and then vs at their lane's
// width: the list of samples a codec stores exactly.
func AppendExact[T field.Elem](buf []byte, vs []T) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = AppendValue(buf, v)
	}
	return buf
}

// Exact reads a list written by AppendExact and returns it with the
// bytes that follow. It fails when the stream is shorter than the count
// claims, so a hostile count never sizes the allocation.
func Exact[T field.Elem](b []byte) ([]T, []byte, bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n, w := int(binary.LittleEndian.Uint32(b)), field.ElemBytes[T]()
	if b = b[4:]; n < 0 || len(b) < w*n { // n < 0: a wrapped count on 32-bit ints
		return nil, nil, false
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = Value[T](b[w*i:])
	}
	return vs, b[w*n:], true
}
