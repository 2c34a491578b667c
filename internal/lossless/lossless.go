// Package lossless wraps the stdlib DEFLATE codec (compress/flate) used
// as the final lossless stage of every lossy compressor in this
// repository, standing in for the Zstd/Zlib back ends of SZ and MGARD.
package lossless

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"

	"lossycorr/internal/scratch"
)

// deflater is a level-9 writer with the buffer it writes into. Its
// state is ~1.4 MB, so Compress takes one from a pool rather than
// building one per call; the pool holds it weakly, so an idle writer
// does not outlive a collection.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

var deflaters = scratch.Pool[deflater]{New: func() *deflater {
	d := new(deflater)
	d.w, _ = flate.NewWriter(&d.buf, flate.BestCompression) // a valid level cannot fail
	return d
}}

// Compress deflates data at the maximum compression level. The writer
// is pooled and rewound with Reset, which the standard library defines
// as equivalent to NewWriter, so the stream is byte for byte the one a
// fresh writer makes; the returned slice is the only allocation while
// the pooled writer lives.
func Compress(data []byte) ([]byte, error) {
	d := deflaters.Get()
	defer deflaters.Put(d)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	if _, err := d.w.Write(data); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	if err := d.w.Close(); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	return bytes.Clone(d.buf.Bytes()), nil
}

// ErrTooLong reports a stream that inflates past its reader's limit.
var ErrTooLong = errors.New("lossless: stream inflates past its limit")

// Inflater reads one stream made by Compress through pooled
// decompressor state. Reset on the standard library's decompressor
// discards every trace of the stream before, a corrupt one included.
type Inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

var inflaters = scratch.Pool[Inflater]{New: func() *Inflater {
	z := new(Inflater)
	z.r = flate.NewReader(&z.src)
	return z
}}

// NewInflater returns an Inflater reading data. Close returns it to the
// pool.
func NewInflater(data []byte) *Inflater {
	z := inflaters.Get()
	z.src.Reset(data)
	z.r.(flate.Resetter).Reset(&z.src, nil) // cannot fail: no dictionary
	return z
}

// Read implements io.Reader over the inflated stream.
func (z *Inflater) Read(p []byte) (int, error) {
	n, err := z.r.Read(p)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("lossless: inflate: %w", err)
	}
	return n, err
}

// Append appends the rest of the stream to dst. It fails with
// ErrTooLong as soon as dst would hold more than limit bytes, so limit,
// not what the stream inflates to, bounds the bytes it allocates.
func (z *Inflater) Append(dst []byte, limit int) ([]byte, error) {
	for len(dst) <= limit {
		if len(dst) == cap(dst) {
			// Room for one byte past limit tells a stream of exactly
			// limit bytes from a longer one.
			dst = slices.Grow(dst, min(max(len(dst), 4096), limit+1-len(dst)))
		}
		n, err := z.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	if len(dst) > limit {
		return dst, ErrTooLong
	}
	return dst, nil
}

// Close returns z's state to the pool; z must not be used after.
func (z *Inflater) Close() {
	z.src.Reset(nil)
	inflaters.Put(z)
}
