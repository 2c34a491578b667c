package lossycorr

import (
	"context"
	"math"
	"testing"
)

// facadeCall is one statistic or measurement entry of the facade, bound
// to a field, returning the numbers it computed.
type facadeCall struct {
	name string
	run  func(context.Context) ([]float64, error)
}

// facadeCalls binds every statistic and measurement entry that takes a
// ctx and a field on either lane to f. MeasureRelative returns only its
// absolute bound, the one number both lanes share: the codec's own
// float32 lane gives other streams.
func facadeCalls[T Elem](f *FieldOf[T]) []facadeCall {
	variogram := func(opts VariogramOptions) func(context.Context) ([]float64, error) {
		return func(ctx context.Context) ([]float64, error) {
			m, err := EstimateVariogramRange(ctx, f, opts)
			return []float64{m.Range, m.Sill}, err
		}
	}
	one := func(v float64, err error) ([]float64, error) { return []float64{v}, err }
	return []facadeCall{
		{"EstimateVariogramRange/sampled", variogram(VariogramOptions{Seed: 3})},
		{"EstimateVariogramRange/exact", variogram(VariogramOptions{Exact: true})},
		{"EstimateVariogramRange/fft", variogram(VariogramOptions{FFT: true})},
		{"LocalVariogramRangeStd", func(ctx context.Context) ([]float64, error) {
			return one(LocalVariogramRangeStd(ctx, f, 16, VariogramOptions{}))
		}},
		{"LocalSVDStd", func(ctx context.Context) ([]float64, error) {
			return one(LocalSVDStd(ctx, f, 16, SVDOptions{}))
		}},
		{"SampledLocalRangeStd", func(ctx context.Context) ([]float64, error) {
			return one(SampledLocalRangeStd(ctx, f, 16, SamplingOptions{Fraction: 0.5, Seed: 2}))
		}},
		{"SampledLocalSVDStd", func(ctx context.Context) ([]float64, error) {
			return one(SampledLocalSVDStd(ctx, f, 16, 0, SamplingOptions{Fraction: 0.5, Seed: 2}))
		}},
		{"SweepSamplingFractions", func(ctx context.Context) ([]float64, error) {
			points, err := SweepSamplingFractions(ctx, f, 16, "svd", []float64{0.5}, SamplingOptions{Seed: 2})
			var out []float64
			for _, p := range points {
				out = append(out, p.Estimate, p.Reference, p.RelError)
			}
			return out, err
		}},
		{"MeasureRelative", func(ctx context.Context) ([]float64, error) {
			res, err := MeasureRelative(ctx, "sz-like", f, 1e-3)
			return []float64{res.ErrorBound}, err
		}},
	}
}

// TestFacadeContract pins the facade's lane and ctx contract on every
// statistic and measurement entry: a *Field32 and its exact widening
// give bit-identical results, MeasureRelative holds its bound on
// float32 values, and a cancelled ctx returns ctx.Err() before any
// work.
func TestFacadeContract(t *testing.T) {
	g, err := GenerateGaussian(GaussianParams{Rows: 64, Cols: 64, Range: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	narrow := g.Narrow()
	wide := narrow.Widen()
	calls32, calls64 := facadeCalls(narrow), facadeCalls(wide)
	for i, c := range calls32 {
		got32, err := c.run(t.Context())
		if err != nil {
			t.Fatalf("%s on Field32: %v", c.name, err)
		}
		got64, err := calls64[i].run(t.Context())
		if err != nil {
			t.Fatalf("%s on Field: %v", c.name, err)
		}
		if len(got32) == 0 || len(got32) != len(got64) {
			t.Fatalf("%s: %d values on Field32, %d on Field", c.name, len(got32), len(got64))
		}
		for k := range got32 {
			if math.Float64bits(got32[k]) != math.Float64bits(got64[k]) {
				t.Errorf("%s value %d: Field32 %v, widened Field %v", c.name, k, got32[k], got64[k])
			}
		}
	}

	for _, name := range CompressorsFor(2) {
		res, err := MeasureRelative(t.Context(), name, narrow, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BoundOK || res.MaxAbsError > res.ErrorBound {
			t.Errorf("%s on Field32: max error %v past bound %v", name, res.MaxAbsError, res.ErrorBound)
		}
	}

	// A 1×1 field is invalid input to every entry, so only a check made
	// before any work returns ctx.Err() for it.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, calls := range [][]facadeCall{facadeCalls(NewField32(1, 1)), facadeCalls(NewField(1, 1))} {
		for _, c := range calls {
			if _, err := c.run(ctx); err != ctx.Err() {
				t.Errorf("%s on a cancelled ctx: error %v, want %v", c.name, err, ctx.Err())
			}
		}
	}
}
