package variogram

import (
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// gaussVolume draws a seeded 3D Gaussian field.
func gaussVolume(t *testing.T, p gaussian.Params3D) *field.Field {
	t.Helper()
	v, err := gaussian.Generate3D(p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCompute3DTooSmall(t *testing.T) {
	if _, err := Compute(bg, in64(field.New(1, 1, 1)), Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCompute3DWhiteNoiseFlat(t *testing.T) {
	rng := xrand.New(2)
	v := field.New(16, 16, 16)
	var variance float64
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
		variance += v.Data[i] * v.Data[i]
	}
	variance /= float64(len(v.Data))
	e, err := Compute(bg, in64(v), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range e.H {
		if math.Abs(e.Gamma[i]-variance) > 0.25*variance {
			t.Fatalf("γ(%v)=%v far from variance %v", h, e.Gamma[i], variance)
		}
	}
}

func TestCompute3DPairCountExact(t *testing.T) {
	// total pair count over all bins must equal the number of unordered
	// pairs within the cutoff; check the lag-1 bin exactly: axis
	// neighbors only (3 directions)
	v := field.New(4, 4, 4)
	rng := xrand.New(3)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	e, err := Compute(bg, in64(v), Options{Exact: true, MaxLag: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.H) != 1 || e.H[0] != 1 {
		t.Fatalf("bins %v", e.H)
	}
	// 3 axes × 4×4 planes × 3 in-axis pairs = 3·(4·4·3) = 144
	if e.N[0] != 144 {
		t.Fatalf("lag-1 pair count %d want 144", e.N[0])
	}
}

func TestGlobalRange3DRecoversGeneratingRange(t *testing.T) {
	v := gaussVolume(t, gaussian.Params3D{Nz: 24, Ny: 24, Nx: 24, Range: 4, Seed: 5})
	m, err := GlobalRange(bg, in64(v), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Range < 2 || m.Range > 8 {
		t.Fatalf("estimated 3D range %v, generating 4", m.Range)
	}
}

func TestGlobalRange3DOrdering(t *testing.T) {
	est := make([]float64, 0, 2)
	for _, rang := range []float64{1.5, 5} {
		v := gaussVolume(t, gaussian.Params3D{Nz: 20, Ny: 20, Nx: 20, Range: rang, Seed: 6})
		m, err := GlobalRange(bg, in64(v), Options{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		est = append(est, m.Range)
	}
	if est[0] >= est[1] {
		t.Fatalf("3D ranges not ordered: %v", est)
	}
}

func TestSampled3DMatchesExact(t *testing.T) {
	v := gaussVolume(t, gaussian.Params3D{Nz: 32, Ny: 32, Nx: 32, Range: 3, Seed: 8})
	exact, err := Compute(bg, in64(v), Options{Exact: true, MaxLag: 8})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Compute(bg, in64(v), Options{MaxLag: 8, MaxPairs: 500000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mE, err := Fit(exact)
	if err != nil {
		t.Fatal(err)
	}
	mS, err := Fit(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mE.Range-mS.Range) > 0.4*mE.Range {
		t.Fatalf("sampled 3D range %v vs exact %v", mS.Range, mE.Range)
	}
}
