package compress

// The measurement harness: round-trip a field through a codec and
// report ratio, error, and PSNR. Float32 fields run through the codec's
// native float32 lane when it has one and a widen→compress→narrow
// fallback otherwise; either way the measurement compares the
// reconstruction against the float32 original, because that is the
// data the caller actually has.

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
)

// RunField compresses, decompresses, and measures f with c at absErr.
func RunField(c FieldCompressor, f *field.Field, absErr float64) (Result, error) {
	if absErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive error bound %v", absErr)
	}
	data, err := c.CompressField(f, absErr)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	dec, err := c.DecompressField(data)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), err)
	}
	maxErr, err := f.MaxAbsDiff(dec)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	mse, err := f.MSE(dec)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Compressor:     c.Name(),
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           PSNRField(f, mse),
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

// RunField32 compresses, decompresses, and measures the float32 field
// f with c at absErr. Native Lane32Compressors run without any
// full-field widening; other codecs measure through the widen→narrow
// fallback (float32→float64 is exact and the reconstruction is
// re-narrowed before comparison, so the bound check still reflects
// what a float32 consumer would see — with the bound slackened by one
// narrow-rounding ulp for the fallback path).
func RunField32(c FieldCompressor, f *field.Field32, absErr float64) (Result, error) {
	if absErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive error bound %v", absErr)
	}
	var (
		data []byte
		dec  *field.Field32
		err  error
	)
	l32, native := c.(Lane32Compressor)
	if native {
		data, err = l32.CompressField32(f, absErr)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
		}
		dec, err = l32.DecompressField32(data)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), err)
		}
	} else {
		wide := f.Widen()
		data, err = c.CompressField(wide, absErr)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
		}
		decWide, derr := c.DecompressField(data)
		if derr != nil {
			return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), derr)
		}
		dec = decWide.Narrow()
	}
	maxErr, err := f.MaxAbsDiff(dec)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	mse, err := f.MSE(dec)
	if err != nil {
		return Result{}, err
	}
	// Bound slack: native lanes enforce the bound on float32 values
	// directly; the fallback's reconstruction picks up at most half a
	// float32 ulp of the reconstructed magnitude when narrowed.
	s := f.Summary()
	slack := absErr * 1e-12
	if !native {
		peak := math.Max(math.Abs(s.Min), math.Abs(s.Max)) + absErr
		slack += peak * 1.2e-7
	}
	res := Result{
		Compressor:     c.Name(),
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           psnrRange(s.ValueRange, mse),
		BoundOK:        maxErr <= absErr+slack,
	}
	if len(data) > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(len(data))
	}
	return res, nil
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
