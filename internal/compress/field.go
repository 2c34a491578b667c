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

// RunField compresses, decompresses, and measures f with c at absErr.
func RunField(c FieldCompressor, f *field.Field, absErr float64) (Result, error) {
	return run(c.Name(), f, absErr, c.CompressField, c.DecompressField)
}

// RunField32 compresses, decompresses, and measures the float32 field
// f with c at absErr through the codec's float32 lane, with no
// full-field widening.
func RunField32(c FieldCompressor, f *field.Field32, absErr float64) (Result, error) {
	return run(c.Name(), f, absErr, c.CompressField32, c.DecompressField32)
}

// lane is what the harness measures on: *field.Field or *field.Field32.
type lane[F any] interface {
	MaxAbsDiff(F) (float64, error)
	MSE(F) (float64, error)
	SizeBytes() int
	Summary() field.Stats
}

// run round-trips f through one lane of the codec called name.
func run[F lane[F]](name string, f F, absErr float64,
	enc func(F, float64) ([]byte, error), dec func([]byte) (F, error)) (Result, error) {
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
	maxErr, err := f.MaxAbsDiff(out)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", name, err)
	}
	mse, err := f.MSE(out)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Compressor:     name,
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           psnrRange(f.Summary().ValueRange, mse),
		BoundOK:        maxErr <= absErr*(1+1e-12),
	}
	if len(data) > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(len(data))
	}
	return res, nil
}

// RunRelativeField measures f under a value-range-relative error
// bound: the absolute bound is relErr times the field's value range.
// The paper notes the formal equivalence between the absolute mode and
// this mode (used natively by SZ); constant fields fall back to relErr
// itself.
func RunRelativeField(c FieldCompressor, f *field.Field, relErr float64) (Result, error) {
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

// PSNRField computes the peak signal-to-noise ratio in dB using the
// field's value range as peak, the convention of the lossy-compression
// community (+Inf for a perfect reconstruction).
func PSNRField(f *field.Field, mse float64) float64 {
	return psnrRange(f.Summary().ValueRange, mse)
}

// psnrRange is the PSNR of an error with mean square mse on a field of
// value range vr.
func psnrRange(vr, mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	if vr == 0 {
		return 0
	}
	return 20*math.Log10(vr) - 10*math.Log10(mse)
}
