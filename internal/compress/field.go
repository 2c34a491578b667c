package compress

// The measurement harness: round-trip a field through a codec and
// report ratio, error, and PSNR. Float32 fields run through the codec's
// float32 lane and are measured against the float32 original, because
// that is the data the caller actually has.

import (
	"fmt"
	"math"
	"slices"

	"lossycorr/internal/field"
	"lossycorr/internal/scratch"
)

// RunField compresses, decompresses, and measures f with c at absErr
// through the codec's lane for f's element type, with no widening: it
// is EncodeField followed by VerifyField.
func RunField[T field.Elem](c FieldCompressor, f *field.Of[T], absErr float64) (Result, error) {
	data, err := EncodeField(c, f, absErr)
	if err != nil {
		return Result{}, err
	}
	return VerifyField(c, f, absErr, data)
}

// EncodeField is the encode half of RunField: it checks absErr and
// compresses f with c on f's lane.
func EncodeField[T field.Elem](c FieldCompressor, f *field.Of[T], absErr float64) ([]byte, error) {
	if err := CheckBound(absErr); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	var data []byte
	var err error
	if f32, ok := any(f).(*field.Field32); ok {
		data, err = c.CompressField32(f32, absErr)
	} else {
		data, err = c.CompressField(any(f).(*field.Field), absErr)
	}
	if err != nil {
		return nil, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	return data, nil
}

// recs64 and recs32 hold the reconstructions VerifyField decodes into,
// one pool per lane.
var (
	recs64 = scratch.Pool[field.Field]{New: func() *field.Field { return new(field.Field) }}
	recs32 = scratch.Pool[field.Field32]{New: func() *field.Field32 { return new(field.Field32) }}
)

// recPool returns the reconstruction pool of lane T.
func recPool[T field.Elem]() *scratch.Pool[field.Of[T]] {
	if p, ok := any(&recs32).(*scratch.Pool[field.Of[T]]); ok {
		return p
	}
	return any(&recs64).(*scratch.Pool[field.Of[T]])
}

// VerifyField is the verify half of RunField: it decodes data, the
// stream c made from f at absErr, into a pooled field of f's shape,
// and measures the reconstruction against f.
func VerifyField[T field.Elem](c FieldCompressor, f *field.Of[T], absErr float64, data []byte) (Result, error) {
	pool := recPool[T]()
	rec := pool.Get()
	defer pool.Put(rec)
	rec.Shape = append(rec.Shape[:0], f.Shape...)
	rec.Data = slices.Grow(rec.Data[:0], len(f.Data))[:len(f.Data)]
	out, err := decompress(c, data, rec)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), err)
	}
	maxErr, mse, vr, err := errorStats(f, out)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	res := Result{
		Compressor:     c.Name(),
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           psnrRange(vr, mse),
		BoundOK:        maxErr <= absErr*(1+1e-12),
	}
	if len(data) > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(len(data))
	}
	return res, nil
}

// decompress decodes data with c on dst's lane, into dst.
func decompress[T field.Elem](c FieldCompressor, data []byte, dst *field.Of[T]) (*field.Of[T], error) {
	if d, ok := any(dst).(*field.Field32); ok {
		out, err := c.DecompressField32(data, d)
		return any(out).(*field.Of[T]), err
	}
	out, err := c.DecompressField(data, any(dst).(*field.Field))
	return any(out).(*field.Of[T]), err
}

// errorStats returns max|f−out|, the mean squared error and f's value
// range in one pass over the two fields, bit for bit what
// f.MaxAbsDiff(out), f.MSE(out) and f.Summary().ValueRange return, NaN
// and ±Inf included: the same differences summed in the same order,
// and the same comparisons, which skip a NaN sample of f. Each square
// is rounded before it is added, so no target fuses a multiply-add.
func errorStats[T field.Elem](f, out *field.Of[T]) (maxErr, mse, vr float64, err error) {
	if !f.SameShape(out) {
		return 0, 0, 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, out.Shape)
	}
	if len(f.Data) == 0 {
		return 0, 0, 0, nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	oneNaN := false
	for i, a := range f.Data {
		b := out.Data[i]
		v := float64(a)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		d := v - float64(b)
		sum += float64(d * d) // fma:rounded
		if ad := math.Abs(d); !(ad <= maxErr) {
			if ad == ad {
				maxErr = ad
			} else if (a != a) != (b != b) {
				oneNaN = true
			}
		}
	}
	if oneNaN {
		maxErr = math.Inf(1)
	}
	return maxErr, sum / float64(len(f.Data)), hi - lo, nil
}

// RunRelativeField measures f under a value-range-relative error
// bound: the absolute bound is relErr times the field's value range.
// The paper notes the formal equivalence between the absolute mode and
// this mode (used natively by SZ); constant fields fall back to relErr
// itself. A float32 field runs on its own lane, as in RunField.
func RunRelativeField[T field.Elem](c FieldCompressor, f *field.Of[T], relErr float64) (Result, error) {
	if relErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive relative bound %v", relErr)
	}
	vr := f.Summary().ValueRange
	abs := relErr * vr
	if abs == 0 {
		abs = relErr
	}
	return RunField(c, f, abs)
}

// psnrRange is the peak signal-to-noise ratio in dB of an error with
// mean square mse on a field of value range vr, the range taken as
// peak, the convention of the lossy-compression community (+Inf for a
// perfect reconstruction); each product is rounded before the
// subtraction.
func psnrRange(vr, mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	if vr == 0 {
		return 0
	}
	return float64(20*math.Log10(vr)) - float64(10*math.Log10(mse)) // fma:rounded
}
