package compress

// The measurement harness: round-trip a field through a codec and
// report ratio, error, and PSNR. Float32 fields run through the codec's
// float32 lane and are measured against the float32 original, because
// that is the data the caller actually has.

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
)

// RunField compresses, decompresses, and measures f with c at absErr
// through the codec's lane for f's element type, with no widening.
func RunField[T field.Elem](c FieldCompressor, f *field.Of[T], absErr float64) (Result, error) {
	if f, ok := any(f).(*field.Field32); ok {
		return run(c.Name(), f, absErr, c.CompressField32, c.DecompressField32)
	}
	return run(c.Name(), any(f).(*field.Field), absErr, c.CompressField, c.DecompressField)
}

// run round-trips f through one lane of the codec called name.
func run[T field.Elem](name string, f *field.Of[T], absErr float64,
	enc func(*field.Of[T], float64) ([]byte, error), dec func([]byte) (*field.Of[T], error)) (Result, error) {
	if err := CheckBound(absErr); err != nil {
		return Result{}, fmt.Errorf("compress: %w", err)
	}
	data, err := enc(f, absErr)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", name, err)
	}
	out, err := dec(data)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s decode: %w", name, err)
	}
	maxErr, mse, vr, err := errorStats(f, out)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", name, err)
	}
	res := Result{
		Compressor:     name,
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
