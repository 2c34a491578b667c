// Package quant implements the linear error-bounded quantizer shared by
// the SZ-like and MGARD-like compressors: prediction residuals are
// mapped to integer codes of width 2·eb so that reconstruction error is
// at most eb, with a reserved escape symbol for residuals outside the
// representable code range (stored exactly out of band).
package quant

import (
	"math"
)

// Radius is the code offset; codes live in [−Radius+1, Radius−1] and
// map to symbols [1, 2·Radius−1]. Symbol 0 (Escape) marks values stored
// exactly.
const Radius = 32768

// Escape is the reserved symbol for unpredictable values.
const Escape uint16 = 0

// Quantizer maps residuals to symbols under an absolute error bound.
type Quantizer struct {
	eb   float64
	step float64 // 2*eb
}

// New returns a quantizer for the given absolute error bound (> 0).
func New(eb float64) Quantizer {
	return Quantizer{eb: eb, step: 2 * eb}
}

// Encode quantizes the residual diff = value − prediction. If the
// residual is representable it returns (symbol, delta, true) where
// delta = code·2eb is the reconstruction increment satisfying
// |diff − delta| <= eb; otherwise it returns (Escape, 0, false) and the
// caller must store the value exactly.
func (q Quantizer) Encode(diff float64) (sym uint16, delta float64, ok bool) {
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return Escape, 0, false
	}
	codeF := math.Round(diff / q.step)
	if codeF >= Radius || codeF <= -Radius {
		return Escape, 0, false
	}
	code := int32(codeF)
	// The conversion rounds the product (Go spec, "Floating-point
	// operators"), so a target with fused multiply-add cannot fuse it
	// into the guard: the guard must test the rounded delta the
	// decoder rebuilds, not the exact code·2eb.
	delta = float64(float64(code) * q.step)
	if !(math.Abs(diff-delta) <= q.eb) {
		// guards rounding pathologies near the representable edge
		return Escape, 0, false
	}
	return uint16(code + Radius), delta, true
}

// Decode maps a non-escape symbol back to its reconstruction increment.
func (q Quantizer) Decode(sym uint16) float64 {
	return float64(int32(sym)-Radius) * q.step
}
