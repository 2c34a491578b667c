package compress

import (
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// errorCase is an original field and a reconstruction of it, in float64;
// the float32 lane narrows both.
type errorCase struct {
	name    string
	f, out  []float64
	varyOut bool // perturb out with noise on top
}

func errorCases() []errorCase {
	nan, inf := math.NaN(), math.Inf(1)
	rng := xrand.New(17)
	noisy := make([]float64, 96)
	for i := range noisy {
		noisy[i] = 40 * rng.NormFloat64()
	}
	constant := make([]float64, 96)
	for i := range constant {
		constant[i] = -2.5
	}
	zeros := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	return []errorCase{
		{"random", noisy, noisy, true},
		{"constant", constant, constant, false},
		{"constant-perturbed", constant, constant, true},
		{"signed-zeros", zeros, []float64{math.Copysign(0, -1), 0, 0, 0}, false},
		{"nan-original-only", []float64{1, nan, 3, 4}, []float64{1, 2, 3, 4.5}, false},
		{"nan-reconstruction-only", []float64{1, 2, 3, 4}, []float64{1.5, 2, nan, 4}, false},
		{"nan-both-sides", []float64{1, nan, 3, 4}, []float64{1.25, nan, 3, 4}, false},
		{"all-nan", []float64{nan, nan, nan, nan}, []float64{nan, nan, nan, nan}, false},
		{"plus-inf-both", []float64{1, inf, 3, 4}, []float64{1, inf, 3.5, 4}, false},
		{"minus-inf-both", []float64{-inf, 2, 3, 4}, []float64{-inf, 2, 3, 4}, false},
		{"inf-one-side", []float64{1, 2, 3, 4}, []float64{1, inf, 3, 4}, false},
		{"both-infinities", []float64{-inf, 2, inf, 4}, []float64{-inf, 2.5, inf, 4}, false},
		{"opposite-infinities", []float64{inf, 2, 3, 4}, []float64{-inf, 2, 3, 4}, false},
		{"empty", nil, nil, false},
	}
}

// TestErrorStatsMatchesMethods pins errorStats, the run's one pass over
// an original and its reconstruction, to the three field methods it
// replaces: MaxAbsDiff, MSE and Summary().ValueRange, bit for bit, on
// both lanes.
func TestErrorStatsMatchesMethods(t *testing.T) {
	for _, c := range errorCases() {
		f := &field.Field{Shape: []int{len(c.f)}, Data: c.f}
		out := &field.Field{Shape: []int{len(c.out)}, Data: append([]float64(nil), c.out...)}
		if c.varyOut {
			rng := xrand.New(3)
			for i := range out.Data {
				out.Data[i] += 1e-3 * rng.NormFloat64()
			}
		}
		t.Run(c.name+"/f64", func(t *testing.T) { checkErrorStats(t, f, out) })
		t.Run(c.name+"/f32", func(t *testing.T) { checkErrorStats(t, f.Narrow(), out.Narrow()) })
	}
}

func checkErrorStats[T field.Elem](t *testing.T, f, out *field.Of[T]) {
	t.Helper()
	maxErr, mse, vr, err := errorStats(f, out)
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := f.MaxAbsDiff(out)
	if err != nil {
		t.Fatal(err)
	}
	wantMSE, err := f.MSE(out)
	if err != nil {
		t.Fatal(err)
	}
	wantVR := f.Summary().ValueRange
	for _, p := range []struct {
		what      string
		got, want float64
	}{{"max error", maxErr, wantMax}, {"MSE", mse, wantMSE}, {"value range", vr, wantVR}} {
		if math.Float64bits(p.got) != math.Float64bits(p.want) {
			t.Errorf("%s %v (%#x), want %v (%#x)", p.what, p.got, math.Float64bits(p.got), p.want, math.Float64bits(p.want))
		}
	}
}

// TestErrorStatsShapeMismatch pins the shape check MaxAbsDiff made.
func TestErrorStatsShapeMismatch(t *testing.T) {
	if _, _, _, err := errorStats(field.New(4, 4), field.New(4, 5)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
