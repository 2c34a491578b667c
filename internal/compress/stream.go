package compress

// Stream layout shared by the codecs. Every stream opens with a 4-byte
// magic that tags the codec, rank and lane, the extents as
// little-endian uint32s, and the absolute error bound as float64 bits;
// exact samples are stored at their lane's width.

import (
	"encoding/binary"
	"math"
	"unsafe"

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
// another magic, a zero extent, or more than maxElements elements; the
// element count is checked as it is formed, so hostile extents cannot
// overflow it before a decoder sizes anything from it.
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
	return h, raw[n:], true
}

// ValueBytes is the stored width of a T sample: 8 on the float64 lane,
// 4 on the float32 lane.
func ValueBytes[T field.Elem]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// AppendValue appends v at its lane's width, little-endian.
func AppendValue[T field.Elem](buf []byte, v T) []byte {
	if ValueBytes[T]() == 4 {
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
}

// Value reads a sample written by AppendValue.
func Value[T field.Elem](b []byte) T {
	if ValueBytes[T]() == 4 {
		return T(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	}
	return T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
}

// FieldOf wraps a float64 decoder's (shape, samples, error) result.
func FieldOf(shape []int, data []float64, err error) (*field.Field, error) {
	if err != nil {
		return nil, err
	}
	return &field.Field{Shape: shape, Data: data}, nil
}

// Field32Of wraps a float32 decoder's (shape, samples, error) result.
func Field32Of(shape []int, data []float32, err error) (*field.Field32, error) {
	if err != nil {
		return nil, err
	}
	return &field.Field32{Shape: shape, Data: data}, nil
}
