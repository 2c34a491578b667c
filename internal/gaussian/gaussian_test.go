package gaussian

import (
	"math"
	"testing"

	"lossycorr/internal/xrand"
)

func TestValidation(t *testing.T) {
	cases := []Params{
		{Rows: 0, Cols: 10, Range: 1},
		{Rows: 10, Cols: -1, Range: 1},
		{Rows: 10, Cols: 10, Range: 0},
		{Rows: 10, Cols: 10, Range: 5, Sigma2: -1},
	}
	for i, p := range cases {
		if _, err := NewSampler(p); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestMomentsUnitVariance(t *testing.T) {
	s, err := NewSampler(Params{Rows: 64, Cols: 64, Range: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	// average over several fields: per-field variance fluctuates with
	// correlated samples, the ensemble mean should be close to 1
	var meanAcc, varAcc float64
	const reps = 20
	for i := 0; i < reps; i++ {
		f, err := s.Sample(rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		st := f.Summary()
		meanAcc += st.Mean
		varAcc += st.Variance
	}
	meanAcc /= reps
	varAcc /= reps
	if math.Abs(meanAcc) > 0.1 {
		t.Fatalf("ensemble mean %v", meanAcc)
	}
	if math.Abs(varAcc-1) > 0.15 {
		t.Fatalf("ensemble variance %v", varAcc)
	}
}

func TestSigma2Scaling(t *testing.T) {
	rng := xrand.New(3)
	s4, err := NewSampler(Params{Rows: 64, Cols: 64, Range: 3, Sigma2: 4})
	if err != nil {
		t.Fatal(err)
	}
	var varAcc float64
	const reps = 10
	for i := 0; i < reps; i++ {
		f, err := s4.Sample(rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		varAcc += f.Summary().Variance
	}
	varAcc /= reps
	if math.Abs(varAcc-4) > 0.8 {
		t.Fatalf("σ²=4 ensemble variance %v", varAcc)
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a, err := Generate(Params{Rows: 32, Cols: 32, Range: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Params{Rows: 32, Cols: 32, Range: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.MaxAbsDiff(b); d != 0 {
		t.Fatalf("same seed differs by %v", d)
	}
	c, err := Generate(Params{Rows: 32, Cols: 32, Range: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.MaxAbsDiff(c); d == 0 {
		t.Fatal("different seeds produced identical fields")
	}
}

// lag1Corr estimates the lag-1 horizontal autocorrelation.
func lag1Corr(data []float64, rows, cols int) float64 {
	var num, den float64
	var mean float64
	for _, v := range data {
		mean += v
	}
	mean /= float64(len(data))
	for r := 0; r < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			num += (data[r*cols+c] - mean) * (data[r*cols+c+1] - mean)
		}
	}
	for _, v := range data {
		den += (v - mean) * (v - mean)
	}
	return num / den
}

func TestLargerRangeIsSmoother(t *testing.T) {
	rng := xrand.New(7)
	var corrs []float64
	for _, rang := range []float64{1.5, 6, 24} {
		s, err := NewSampler(Params{Rows: 96, Cols: 96, Range: rang})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Sample(rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		corrs = append(corrs, lag1Corr(f.Data, f.Shape[0], f.Shape[1]))
	}
	if !(corrs[0] < corrs[1] && corrs[1] < corrs[2]) {
		t.Fatalf("lag-1 correlations not increasing with range: %v", corrs)
	}
	// theoretical lag-1 correlation: exp(-1/a²)
	want := math.Exp(-1.0 / (6 * 6))
	if math.Abs(corrs[1]-want) > 0.15 {
		t.Fatalf("lag-1 corr %v want ≈%v", corrs[1], want)
	}
}

func TestClampMassNegligible(t *testing.T) {
	for _, rang := range []float64{1, 8, 32} {
		s, err := NewSampler(Params{Rows: 64, Cols: 64, Range: rang})
		if err != nil {
			t.Fatal(err)
		}
		if s.clampMass > 1e-6 {
			t.Fatalf("range %v: clamp mass %v too large", rang, s.clampMass)
		}
	}
}

func TestSamplePairIndependence(t *testing.T) {
	s, err := NewSampler(Params{Rows: 48, Cols: 48, Range: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := s.SamplePair(xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// cross-correlation of the two fields should be near zero
	var dot, na, nb float64
	for i := range a.Data {
		dot += a.Data[i] * b.Data[i]
		na += a.Data[i] * a.Data[i]
		nb += b.Data[i] * b.Data[i]
	}
	rho := dot / math.Sqrt(na*nb)
	if math.Abs(rho) > 0.2 {
		t.Fatalf("pair correlation %v", rho)
	}
}

func TestNonSquareField(t *testing.T) {
	f, err := Generate(Params{Rows: 20, Cols: 50, Range: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Shape[0] != 20 || f.Shape[1] != 50 {
		t.Fatalf("shape %v", f.Shape)
	}
}

func TestGenerateMulti(t *testing.T) {
	f, err := GenerateMulti(MultiParams{Rows: 64, Cols: 64, Ranges: []float64{2, 12}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Summary()
	if math.Abs(st.Variance-1) > 0.5 {
		t.Fatalf("multi-range variance %v", st.Variance)
	}
	if _, err := GenerateMulti(MultiParams{Rows: 8, Cols: 8}); err == nil {
		t.Fatal("expected empty-ranges error")
	}
}

func TestGenerateMultiDeterminism(t *testing.T) {
	p := MultiParams{Rows: 24, Cols: 24, Ranges: []float64{2, 6}, Seed: 21}
	a, err := GenerateMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.MaxAbsDiff(b); d != 0 {
		t.Fatalf("multi determinism broken: %v", d)
	}
}

func TestTheoreticalVariogram(t *testing.T) {
	if TheoreticalVariogram(0, 5, 1) != 0 {
		t.Fatal("γ(0) must be 0")
	}
	if v := TheoreticalVariogram(1e9, 5, 2); math.Abs(v-2) > 1e-12 {
		t.Fatalf("γ(∞)=%v want sill 2", v)
	}
	// default sigma2
	if v := TheoreticalVariogram(1e9, 5, 0); math.Abs(v-1) > 1e-12 {
		t.Fatalf("default sill %v", v)
	}
}

// TestHostileParamsRejected pins that non-finite parameters, ranges
// whose kernel underflows to NaN, and embedding tori whose extents or
// size overflow are errors before anything is allocated — never a NaN
// field, a panic, or an unbounded allocation.
func TestHostileParamsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	huge := 1 << 40
	cases := []struct {
		name string
		gen  func() error
	}{
		{"2d/range=NaN", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: nan}); return err }},
		{"2d/range=+Inf", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: inf}); return err }},
		{"2d/range=1e18", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: 1e18}); return err }},
		{"2d/range=1e-200", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: 1e-200}); return err }},
		{"2d/sigma2=NaN", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: 2, Sigma2: nan}); return err }},
		{"2d/sigma2=+Inf", func() error { _, err := Generate(Params{Rows: 8, Cols: 8, Range: 2, Sigma2: inf}); return err }},
		{"2d/rows=MaxInt", func() error { _, err := Generate(Params{Rows: math.MaxInt, Cols: 8, Range: 2}); return err }},
		{"2d/size-overflow", func() error { _, err := Generate(Params{Rows: huge, Cols: huge, Range: 2}); return err }},
		{"3d/range=NaN", func() error { _, err := Generate3D(Params3D{Nz: 4, Ny: 4, Nx: 4, Range: nan}); return err }},
		{"3d/range=1e18", func() error { _, err := Generate3D(Params3D{Nz: 4, Ny: 4, Nx: 4, Range: 1e18}); return err }},
		{"3d/sigma2=+Inf", func() error { _, err := Generate3D(Params3D{Nz: 4, Ny: 4, Nx: 4, Range: 2, Sigma2: inf}); return err }},
		{"3d/size-overflow", func() error {
			_, err := Generate3D(Params3D{Nz: 1 << 22, Ny: 1 << 22, Nx: 1 << 22, Range: 2})
			return err
		}},
		{"multi/range=NaN", func() error {
			_, err := GenerateMulti(MultiParams{Rows: 8, Cols: 8, Ranges: []float64{2, nan}})
			return err
		}},
		{"multi/range=1e18", func() error {
			_, err := GenerateMulti(MultiParams{Rows: 8, Cols: 8, Ranges: []float64{2, 1e18}})
			return err
		}},
		{"multi/sigma2=NaN", func() error {
			_, err := GenerateMulti(MultiParams{Rows: 8, Cols: 8, Ranges: []float64{2}, Sigma2: nan})
			return err
		}},
		{"multi/rows=MaxInt", func() error {
			_, err := GenerateMulti(MultiParams{Rows: math.MaxInt, Cols: 8, Ranges: []float64{2}})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.gen(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
