package compress

// Stream layout shared by the codecs. Every stream opens with a 4-byte
// magic that tags the codec, rank and lane, the extents as
// little-endian uint32s, and the absolute error bound as float64 bits;
// exact samples are stored at their lane's width.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"lossycorr/internal/field"
	"lossycorr/internal/lossless"
	"lossycorr/internal/scratch"
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

// Payload is an inflated codec stream: its header and the bytes after
// it, held in a pooled buffer that Release hands back.
type Payload struct {
	Header
	Body []byte
	buf  *[]byte
}

// payloads recycles the inflated streams Inflate parses.
var payloads = scratch.Pool[[]byte]{New: func() *[]byte { return new([]byte) }}

// errHeader reports a stream whose header ParseHeader rejects.
var errHeader = errors.New("compress: malformed stream header")

// Inflate inflates a codec stream (the lossless stage's output) and
// parses the header of a rank-`rank` stream tagged magic. It inflates
// the header first and then at most maxBody(h) more bytes, the largest
// body a valid stream of header h has, failing with lossless.ErrTooLong
// past that: the header, not the size a hostile stream inflates to,
// bounds what decoding allocates. Release the payload once nothing
// refers to its body.
func Inflate(data []byte, magic [4]byte, rank int, maxBody func(Header) int) (Payload, error) {
	z := lossless.NewInflater(data)
	defer z.Close()
	p := Payload{buf: payloads.Get()}
	n := 4 + 4*rank + 8
	raw := append((*p.buf)[:0], make([]byte, n)...)
	*p.buf = raw
	if _, err := io.ReadFull(z, raw); err != nil {
		p.Release()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Payload{}, errHeader
		}
		return Payload{}, err
	}
	h, _, ok := ParseHeader(raw, magic, rank)
	if !ok {
		p.Release()
		return Payload{}, errHeader
	}
	raw, err := z.Append(raw, n+maxBody(h))
	*p.buf = raw
	if err != nil {
		p.Release()
		return Payload{}, err
	}
	p.Header, p.Body = h, raw[n:]
	return p, nil
}

// Release hands the payload's buffer back to the pool; p.Body must not
// be used after.
func (p *Payload) Release() {
	if p.buf != nil {
		payloads.Put(p.buf)
	}
	p.buf, p.Body = nil, nil
}

// ErrDstShape reports a destination field whose shape is not the
// decoded stream's.
var ErrDstShape = errors.New("compress: destination shape differs from the stream's")

// Dst returns the field a decoder writes the stream of header h into:
// the caller's field when DecompressField or DecompressField32 got a
// non-nil one, else a new field of h's shape. A caller's field of
// another shape fails with ErrDstShape, as does more than one.
func Dst[T field.Elem](h Header, dst []*field.Of[T]) (*field.Of[T], error) {
	switch {
	case len(dst) > 1:
		return nil, fmt.Errorf("%w: %d destinations", ErrDstShape, len(dst))
	case len(dst) == 0 || dst[0] == nil:
		return &field.Of[T]{Shape: h.Shape, Data: make([]T, h.Len)}, nil
	}
	out := dst[0]
	if !slices.Equal(out.Shape, h.Shape) || len(out.Data) != h.Len {
		return nil, fmt.Errorf("%w: %v, stream %v", ErrDstShape, out.Shape, h.Shape)
	}
	return out, nil
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
