// Package bitstream provides MSB-first bit-level writers and readers
// for the ZFP-like bit-plane encoder. The Huffman coder packs its own
// bits in the same order; its map-keyed reference coder, kept in its
// tests, writes and reads through this package.
package bitstream

import (
	"errors"
	"fmt"
)

// Writer accumulates bits MSB-first into a growing byte buffer.
type Writer struct {
	buf  []byte
	bits uint64 // pending bits, left-aligned within the low `n` positions
	n    uint   // number of pending bits (< 8 after flushes)
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Reset truncates the writer to empty, retaining the underlying buffer
// so a pooled Writer can be reused without re-allocating.
func (w *Writer) Reset() { w.buf = w.buf[:0]; w.bits, w.n = 0, 0 }

// WriteBits appends the low `count` bits of v, most significant first.
// count must be <= 56 so the pending register never overflows.
func (w *Writer) WriteBits(v uint64, count uint) {
	if count > 56 {
		w.WriteBits(v>>32, count-32)
		w.WriteBits(v&0xffffffff, 32)
		return
	}
	w.bits = w.bits<<count | (v & ((1 << count) - 1))
	w.n += count
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.bits>>w.n))
	}
	w.bits &= (1 << w.n) - 1
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.n) }

// Bytes flushes the final partial byte (zero padded) and returns the
// underlying buffer. The Writer remains usable for reading back length
// but further writes after Bytes are not supported.
func (w *Writer) Bytes() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.bits<<(8-w.n)))
		w.bits, w.n = 0, 0
	}
	return w.buf
}

// ErrOutOfBits reports a read past the end of the stream.
var ErrOutOfBits = errors.New("bitstream: out of bits")

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int  // byte index
	bit uint // bits already consumed from buf[pos], 0..7
}

// NewReader wraps data for reading.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// ReadBits returns the next count bits, MSB-first, as a uint64.
// count must be <= 64. Once the cursor reaches a byte boundary the
// remaining full bytes are consumed with whole-byte reads, so batched
// consumers (the ZFP-like plane decoder) pay ~1/8 the per-bit cost.
func (r *Reader) ReadBits(count uint) (uint64, error) {
	if count > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits count %d > 64", count)
	}
	var v uint64
	for count > 0 && r.bit != 0 {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
		count--
	}
	for count >= 8 {
		if r.pos >= len(r.buf) {
			return 0, ErrOutOfBits
		}
		v = v<<8 | uint64(r.buf[r.pos])
		r.pos++
		count -= 8
	}
	for count > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
		count--
	}
	return v, nil
}
