package hydro

import (
	"math"
	"testing"

	"lossycorr/internal/field"
)

func TestUniformStateStaysUniform(t *testing.T) {
	s := NewSim(16, 16, 1, 1)
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

func TestMassConservationPeriodic(t *testing.T) {
	s := KelvinHelmholtz(32, 32, 1)
	m0 := s.TotalMass()
	if err := s.Run(0.2, 2000); err != nil {
		t.Fatal(err)
	}
	m1 := s.TotalMass()
	if math.Abs(m1-m0) > 1e-10*math.Abs(m0) {
		t.Fatalf("mass not conserved: %v -> %v", m0, m1)
	}
}

func TestEnergyConservationPeriodic(t *testing.T) {
	s := KelvinHelmholtz(32, 32, 2)
	e0 := s.TotalEnergy()
	if err := s.Run(0.2, 2000); err != nil {
		t.Fatal(err)
	}
	e1 := s.TotalEnergy()
	if math.Abs(e1-e0) > 1e-10*math.Abs(e0) {
		t.Fatalf("energy not conserved: %v -> %v", e0, e1)
	}
}

func TestKHStaysPhysical(t *testing.T) {
	s := KelvinHelmholtz(48, 48, 3)
	if err := s.Run(0.8, 5000); err != nil {
		t.Fatal(err)
	}
	d := s.Density()
	st := d.Summary()
	if st.Min <= 0 {
		t.Fatalf("non-positive density %v", st.Min)
	}
	if math.IsNaN(st.Mean) {
		t.Fatal("NaN density")
	}
}

func TestRTStaysPhysicalWithGravity(t *testing.T) {
	s := RayleighTaylor(32, 64, 4)
	if err := s.Run(0.5, 5000); err != nil {
		t.Fatal(err)
	}
	p := s.Pressure()
	if p.Summary().Min <= 0 {
		t.Fatalf("non-positive pressure %v", p.Summary().Min)
	}
}

func TestRTInterfaceMoves(t *testing.T) {
	s := RayleighTaylor(32, 64, 5)
	rho0 := s.Density()
	if err := s.Run(1.2, 8000); err != nil {
		t.Fatal(err)
	}
	rho1 := s.Density()
	d, err := rho0.MaxAbsDiff(rho1)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.05 {
		t.Fatalf("density barely changed (%v); instability did not develop", d)
	}
}

func TestDeterminism(t *testing.T) {
	a := KelvinHelmholtz(24, 24, 7)
	b := KelvinHelmholtz(24, 24, 7)
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
	c := KelvinHelmholtz(24, 24, 8)
	if err := c.Run(0.3, 2000); err != nil {
		t.Fatal(err)
	}
	if d, _ := da.MaxAbsDiff(c.VelocityX()); d == 0 {
		t.Fatal("different seeds identical")
	}
}

func TestGhostIndexing(t *testing.T) {
	// periodic
	if i, flip := ghost(-1, 8, Periodic); i != 7 || flip {
		t.Fatalf("periodic ghost(-1) = %d,%v", i, flip)
	}
	if i, _ := ghost(9, 8, Periodic); i != 1 {
		t.Fatalf("periodic ghost(9) = %d", i)
	}
	// reflective
	if i, flip := ghost(-1, 8, Reflective); i != 0 || !flip {
		t.Fatalf("reflective ghost(-1) = %d,%v", i, flip)
	}
	if i, flip := ghost(-2, 8, Reflective); i != 1 || !flip {
		t.Fatalf("reflective ghost(-2) = %d,%v", i, flip)
	}
	if i, flip := ghost(8, 8, Reflective); i != 7 || !flip {
		t.Fatalf("reflective ghost(8) = %d,%v", i, flip)
	}
	// interior passthrough
	if i, flip := ghost(3, 8, Reflective); i != 3 || flip {
		t.Fatalf("interior ghost(3) = %d,%v", i, flip)
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
	s := NewSim(4, 4, 1, 1)
	s.SetPrimitive(2, 3, 1.7, 0.3, -0.2, 2.1)
	rho, u, v, p := s.Primitive(2, 3)
	if math.Abs(rho-1.7) > 1e-14 || math.Abs(u-0.3) > 1e-14 ||
		math.Abs(v+0.2) > 1e-14 || math.Abs(p-2.1) > 1e-12 {
		t.Fatalf("primitive roundtrip: %v %v %v %v", rho, u, v, p)
	}
}

func TestVelocityXShape(t *testing.T) {
	s := KelvinHelmholtz(20, 12, 1)
	g := s.VelocityX()
	if g.Shape[0] != 12 || g.Shape[1] != 20 {
		t.Fatalf("velocityx shape %v, want rows=ny cols=nx", g.Shape)
	}
}

func TestGenerateSlices(t *testing.T) {
	set, err := GenerateSlices(32, 3, 0.9, 6)
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
	if _, err := GenerateSlices(16, 0, 1, 1); err == nil {
		t.Fatal("expected count error")
	}
}

func TestStepErrorOnInvalidState(t *testing.T) {
	s := NewSim(4, 4, 1, 1)
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
