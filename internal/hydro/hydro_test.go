package hydro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lossycorr/internal/field"
)

func TestUniformStateStaysUniform(t *testing.T) {
	s := NewSim(16, 16)
	for i := 0; i < 5; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			rho, u, v, p := s.Primitive(i, j)
			if math.Abs(rho-1) > 1e-12 || math.Abs(u) > 1e-12 || math.Abs(v) > 1e-12 || math.Abs(p-1) > 1e-12 {
				t.Fatalf("uniform state drifted at (%d,%d): %v %v %v %v", i, j, rho, u, v, p)
			}
		}
	}
}

// totalMass integrates ρ over the domain (exactly conserved).
func totalMass(s *Sim) float64 {
	var m float64
	for _, r := range s.rho {
		m += r
	}
	return m * s.Dx * s.Dy
}

// totalEnergy integrates E over the domain.
func totalEnergy(s *Sim) float64 {
	var m float64
	for _, v := range s.e {
		m += v
	}
	return m * s.Dx * s.Dy
}

func TestMassConservationPeriodic(t *testing.T) {
	s := NewKelvinHelmholtz(KHParams{Nx: 32, Ny: 32, Seed: 1})
	m0 := totalMass(s)
	if err := s.Run(0.2, 2000); err != nil {
		t.Fatal(err)
	}
	m1 := totalMass(s)
	if math.Abs(m1-m0) > 1e-10*math.Abs(m0) {
		t.Fatalf("mass not conserved: %v -> %v", m0, m1)
	}
}

func TestEnergyConservationPeriodic(t *testing.T) {
	s := NewKelvinHelmholtz(KHParams{Nx: 32, Ny: 32, Seed: 2})
	e0 := totalEnergy(s)
	if err := s.Run(0.2, 2000); err != nil {
		t.Fatal(err)
	}
	e1 := totalEnergy(s)
	if math.Abs(e1-e0) > 1e-10*math.Abs(e0) {
		t.Fatalf("energy not conserved: %v -> %v", e0, e1)
	}
}

func TestKHStaysPhysical(t *testing.T) {
	s := NewKelvinHelmholtz(KHParams{Nx: 48, Ny: 48, Seed: 3})
	// Run fails through checkPhysical on ρ ≤ 0, p ≤ 0 or NaN.
	if err := s.Run(0.8, 5000); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewKelvinHelmholtz(KHParams{Nx: 24, Ny: 24, Seed: 7})
	b := NewKelvinHelmholtz(KHParams{Nx: 24, Ny: 24, Seed: 7})
	if err := a.Run(0.3, 2000); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(0.3, 2000); err != nil {
		t.Fatal(err)
	}
	da := a.VelocityX()
	db := b.VelocityX()
	if d, _ := da.MaxAbsDiff(db); d != 0 {
		t.Fatalf("same seed diverged by %v", d)
	}
	c := NewKelvinHelmholtz(KHParams{Nx: 24, Ny: 24, Seed: 8})
	if err := c.Run(0.3, 2000); err != nil {
		t.Fatal(err)
	}
	if d, _ := da.MaxAbsDiff(c.VelocityX()); d == 0 {
		t.Fatal("different seeds identical")
	}
}

func TestGhostIndexing(t *testing.T) {
	for _, c := range []struct{ i, want int }{
		{-1, 7}, {-2, 6}, {8, 0}, {9, 1}, {3, 3}, {0, 0}, {7, 7},
	} {
		if got := wrap(c.i, 8); got != c.want {
			t.Fatalf("wrap(%d, 8) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestMinmod(t *testing.T) {
	if minmod(1, 2) != 1 || minmod(2, 1) != 1 {
		t.Fatal("minmod picks larger magnitude")
	}
	if minmod(-1, -3) != -1 {
		t.Fatal("minmod negative wrong")
	}
	if minmod(1, -1) != 0 || minmod(0, 5) != 0 {
		t.Fatal("minmod sign change must be 0")
	}
}

func TestPrimitiveRoundtrip(t *testing.T) {
	s := NewSim(4, 4)
	s.SetPrimitive(2, 3, 1.7, 0.3, -0.2, 2.1)
	rho, u, v, p := s.Primitive(2, 3)
	if math.Abs(rho-1.7) > 1e-14 || math.Abs(u-0.3) > 1e-14 ||
		math.Abs(v+0.2) > 1e-14 || math.Abs(p-2.1) > 1e-12 {
		t.Fatalf("primitive roundtrip: %v %v %v %v", rho, u, v, p)
	}
}

func TestVelocityXShape(t *testing.T) {
	s := NewKelvinHelmholtz(KHParams{Nx: 20, Ny: 12, Seed: 1})
	g := s.VelocityX()
	if g.Shape[0] != 12 || g.Shape[1] != 20 {
		t.Fatalf("velocityx shape %v, want rows=ny cols=nx", g.Shape)
	}
}

func TestGenerateSlices(t *testing.T) {
	set, err := GenerateSlices(32, 3, 0.9, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Slices) != 3 || len(set.Times) != 3 {
		t.Fatalf("got %d slices %d times", len(set.Slices), len(set.Times))
	}
	if !(set.Times[0] < set.Times[1] && set.Times[1] < set.Times[2]) {
		t.Fatalf("times not increasing: %v", set.Times)
	}
	for i, s := range set.Slices {
		if s.Shape[0] != 32 || s.Shape[1] != 32 {
			t.Fatalf("slice %d shape %v", i, s.Shape)
		}
		if s.Summary().Variance == 0 {
			t.Fatalf("slice %d is constant", i)
		}
	}
}

func TestGenerateSlicesValidation(t *testing.T) {
	if _, err := GenerateSlices(16, 0, 1, 1, 0); err == nil {
		t.Fatal("expected count error")
	}
}

func TestStepErrorOnInvalidState(t *testing.T) {
	s := NewSim(4, 4)
	s.SetPrimitive(0, 0, math.NaN(), 0, 0, 1)
	if _, err := s.Step(); err == nil {
		t.Fatal("expected error for NaN state")
	}
}

func TestNormalize(t *testing.T) {
	f, _ := field.FromData([]int{1, 4}, []float64{2, 4, 6, 8})
	s := normalize(f).Summary()
	if math.Abs(s.Mean) > 1e-12 || math.Abs(s.Variance-1) > 1e-12 {
		t.Fatalf("normalize gave mean=%v var=%v", s.Mean, s.Variance)
	}
	// A constant field is only centred, never divided by a zero sd.
	c, _ := field.FromData([]int{1, 3}, []float64{5, 5, 5})
	for _, v := range normalize(c).Data {
		if v != 0 {
			t.Fatalf("constant normalize -> %v", c.Data)
		}
	}
}

// TestSliceSetDigest pins the Miranda substitute's output bit for bit:
// a SHA-256 over the capture time and every velocityx sample of a small
// slice set. The figures' Miranda panels and the facade's
// TurbulenceSlices read these bits, so a change to the solver must
// leave the hex below unchanged.
func TestSliceSetDigest(t *testing.T) {
	const want = "aeb781396b8a084d83eb7fa0a2558f3fd3d82ea7081bf3d9e0b9f11b08514bd5"
	set, err := GenerateSlices(32, 3, 0.4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for k, s := range set.Slices {
		put(set.Times[k])
		for _, v := range s.Data {
			put(v)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("slice set digest %s, want %s", got, want)
	}
}
