// Package hydro is the Miranda substitute: a 2D compressible Euler
// solver (finite volume, MUSCL reconstruction with minmod limiter,
// Rusanov flux, Heun/RK2 time stepping) on the periodic unit square,
// with a Kelvin–Helmholtz double-shear-layer setup. The paper analyzes
// velocityx slices of LLNL's Miranda hydrodynamic turbulence code;
// that code and its data are not redistributable, so this solver
// produces velocity fields with the property the paper actually relies
// on: complex, heterogeneous, multi-scale spatial correlation structure
// evolving with time.
package hydro

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
	"lossycorr/internal/xrand"
)

// Gamma is the ideal-gas adiabatic index.
const Gamma = 1.4

// cfl is the Courant number of every step.
const cfl = 0.4

// Sim is a 2D compressible Euler simulation on an nx×ny cell grid
// over the unit square, periodic in both directions. Conserved
// variables per cell: density ρ, momenta ρu, ρv, total energy E.
type Sim struct {
	Nx, Ny int
	Dx, Dy float64

	rho, mu, mv, e []float64 // conserved state, row-major [j*nx+i]
	time           float64
	steps          int
}

// NewSim allocates a simulation with uniform state (ρ=1, p=1, at rest).
func NewSim(nx, ny int) *Sim {
	s := &Sim{
		Nx: nx, Ny: ny,
		Dx: 1 / float64(nx), Dy: 1 / float64(ny),
	}
	n := nx * ny
	s.rho = make([]float64, n)
	s.mu = make([]float64, n)
	s.mv = make([]float64, n)
	s.e = make([]float64, n)
	for i := 0; i < n; i++ {
		s.rho[i] = 1
		s.e[i] = 1 / (Gamma - 1) // p=1, at rest
	}
	return s
}

// Time returns the current simulation time.
func (s *Sim) Time() float64 { return s.time }

func (s *Sim) idx(i, j int) int { return j*s.Nx + i }

// SetPrimitive assigns cell (i, j) from primitive variables.
func (s *Sim) SetPrimitive(i, j int, rho, u, v, p float64) {
	k := s.idx(i, j)
	s.rho[k] = rho
	s.mu[k] = rho * u
	s.mv[k] = rho * v
	s.e[k] = p/(Gamma-1) + 0.5*rho*(u*u+v*v)
}

// Primitive returns (ρ, u, v, p) of cell (i, j).
func (s *Sim) Primitive(i, j int) (rho, u, v, p float64) {
	k := s.idx(i, j)
	rho = s.rho[k]
	u = s.mu[k] / rho
	v = s.mv[k] / rho
	p = (Gamma - 1) * (s.e[k] - 0.5*rho*(u*u+v*v))
	return
}

// VelocityX extracts the u field as a rank-2 field (rows = y,
// cols = x), the variable the paper analyzes ("velocityx").
func (s *Sim) VelocityX() *field.Field {
	g := field.New(s.Ny, s.Nx)
	for k := range g.Data {
		g.Data[k] = s.mu[k] / s.rho[k]
	}
	return g
}

// normalize rescales f in place to zero mean and unit variance, only
// centring a constant field, and returns f.
func normalize(f *field.Field) *field.Field {
	st := f.Summary()
	sd := math.Sqrt(st.Variance)
	if sd == 0 {
		sd = 1 // x/1 == x exactly, so a constant field is only centred
	}
	for i, v := range f.Data {
		f.Data[i] = (v - st.Mean) / sd
	}
	return f
}

// maxWaveSpeed returns max(|u|+c, |v|+c) over all cells.
func (s *Sim) maxWaveSpeed() float64 {
	var m float64
	for j := 0; j < s.Ny; j++ {
		for i := 0; i < s.Nx; i++ {
			rho, u, v, p := s.Primitive(i, j)
			if rho <= 0 || p <= 0 {
				continue
			}
			c := math.Sqrt(Gamma * p / rho)
			if a := math.Abs(u) + c; a > m {
				m = a
			}
			if a := math.Abs(v) + c; a > m {
				m = a
			}
		}
	}
	return m
}

// Step advances one CFL-limited time step (Heun's method) and returns
// the dt taken, or an error if the state has gone non-physical.
func (s *Sim) Step() (float64, error) {
	ws := s.maxWaveSpeed()
	if ws == 0 || math.IsNaN(ws) || math.IsInf(ws, 0) {
		return 0, fmt.Errorf("hydro: invalid wave speed %v at t=%v", ws, s.time)
	}
	h := s.Dx
	if s.Dy < h {
		h = s.Dy
	}
	dt := cfl * h / ws

	n := s.Nx * s.Ny
	u0 := cloneState(s.rho, s.mu, s.mv, s.e)
	k1 := s.rhs()
	// predictor
	for c := 0; c < 4; c++ {
		dst := s.comp(c)
		for i := 0; i < n; i++ {
			dst[i] += dt * k1[c][i]
		}
	}
	k2 := s.rhs()
	// corrector: u = u0 + dt/2 (k1 + k2)
	for c := 0; c < 4; c++ {
		dst := s.comp(c)
		src := u0[c]
		for i := 0; i < n; i++ {
			dst[i] = src[i] + 0.5*dt*(k1[c][i]+k2[c][i])
		}
	}
	if err := s.checkPhysical(); err != nil {
		return 0, err
	}
	s.time += dt
	s.steps++
	return dt, nil
}

// Run advances until time t (or maxSteps), whichever first.
func (s *Sim) Run(t float64, maxSteps int) error {
	for s.time < t && s.steps < maxSteps {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Sim) comp(c int) []float64 {
	switch c {
	case 0:
		return s.rho
	case 1:
		return s.mu
	case 2:
		return s.mv
	default:
		return s.e
	}
}

func cloneState(arrs ...[]float64) [4][]float64 {
	var out [4][]float64
	for i, a := range arrs {
		out[i] = append([]float64(nil), a...)
	}
	return out
}

func (s *Sim) checkPhysical() error {
	for j := 0; j < s.Ny; j++ {
		for i := 0; i < s.Nx; i++ {
			rho, _, _, p := s.Primitive(i, j)
			if !(rho > 0) || !(p > 0) || math.IsNaN(rho) || math.IsNaN(p) {
				return fmt.Errorf("hydro: non-physical state ρ=%v p=%v at cell (%d,%d) t=%v", rho, p, i, j, s.time)
			}
		}
	}
	return nil
}

// minmod slope limiter.
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// state is a conserved 4-vector.
type state [4]float64

func (s *Sim) cellState(i, j int) state {
	k := s.idx(i, j)
	return state{s.rho[k], s.mu[k], s.mv[k], s.e[k]}
}

// wrap maps a cell index of an axis with n cells onto the periodic
// domain.
func wrap(i, n int) int {
	if i >= 0 && i < n {
		return i
	}
	return ((i % n) + n) % n
}

// stateAt is the state of cell (i, j), either index wrapped.
func (s *Sim) stateAt(i, j int) state {
	return s.cellState(wrap(i, s.Nx), wrap(j, s.Ny))
}

func primitive(q state) (rho, u, v, p float64) {
	rho = q[0]
	u = q[1] / rho
	v = q[2] / rho
	p = (Gamma - 1) * (q[3] - 0.5*rho*(u*u+v*v))
	return
}

// fluxX is the physical x-direction Euler flux of state q.
func fluxX(q state) state {
	rho, u, v, p := primitive(q)
	return state{rho * u, rho*u*u + p, rho * u * v, (q[3] + p) * u}
}

// fluxY is the physical y-direction Euler flux.
func fluxY(q state) state {
	rho, u, v, p := primitive(q)
	return state{rho * v, rho * u * v, rho*v*v + p, (q[3] + p) * v}
}

// rusanov computes the local Lax-Friedrichs numerical flux between
// reconstructed left/right states for the given physical flux and the
// normal velocity selector.
func rusanov(l, r state, flux func(state) state, normalVel func(rho, u, v float64) float64) state {
	rhoL, uL, vL, pL := primitive(l)
	rhoR, uR, vR, pR := primitive(r)
	cL := math.Sqrt(Gamma * math.Max(pL, 1e-12) / math.Max(rhoL, 1e-12))
	cR := math.Sqrt(Gamma * math.Max(pR, 1e-12) / math.Max(rhoR, 1e-12))
	sL := math.Abs(normalVel(rhoL, uL, vL)) + cL
	sR := math.Abs(normalVel(rhoR, uR, vR)) + cR
	sMax := math.Max(sL, sR)
	fl, fr := flux(l), flux(r)
	var out state
	for c := 0; c < 4; c++ {
		out[c] = 0.5*(fl[c]+fr[c]) - 0.5*sMax*(r[c]-l[c])
	}
	return out
}

// rhs evaluates dU/dt, the flux divergence (MUSCL/minmod + Rusanov).
func (s *Sim) rhs() [4][]float64 {
	n := s.Nx * s.Ny
	var out [4][]float64
	for c := range out {
		out[c] = make([]float64, n)
	}
	velX := func(rho, u, v float64) float64 { return u }
	velY := func(rho, u, v float64) float64 { return v }

	// x-direction sweeps: rows are independent, fan them out
	parallel.For(s.Ny, 0, func(j int) {
		for i := 0; i <= s.Nx; i++ { // interface between cells i-1 and i
			qm2 := s.stateAt(i-2, j)
			qm1 := s.stateAt(i-1, j)
			q0 := s.stateAt(i, j)
			qp1 := s.stateAt(i+1, j)
			var l, r state
			for c := 0; c < 4; c++ {
				l[c] = qm1[c] + 0.5*minmod(qm1[c]-qm2[c], q0[c]-qm1[c])
				r[c] = q0[c] - 0.5*minmod(q0[c]-qm1[c], qp1[c]-q0[c])
			}
			f := rusanov(l, r, fluxX, velX)
			if i > 0 {
				k := s.idx(i-1, j)
				for c := 0; c < 4; c++ {
					out[c][k] -= f[c] / s.Dx
				}
			}
			if i < s.Nx {
				k := s.idx(i, j)
				for c := 0; c < 4; c++ {
					out[c][k] += f[c] / s.Dx
				}
			}
		}
	})
	// y-direction sweeps: columns are independent
	parallel.For(s.Nx, 0, func(i int) {
		for j := 0; j <= s.Ny; j++ {
			qm2 := s.stateAt(i, j-2)
			qm1 := s.stateAt(i, j-1)
			q0 := s.stateAt(i, j)
			qp1 := s.stateAt(i, j+1)
			var l, r state
			for c := 0; c < 4; c++ {
				l[c] = qm1[c] + 0.5*minmod(qm1[c]-qm2[c], q0[c]-qm1[c])
				r[c] = q0[c] - 0.5*minmod(q0[c]-qm1[c], qp1[c]-q0[c])
			}
			f := rusanov(l, r, fluxY, velY)
			if j > 0 {
				k := s.idx(i, j-1)
				for c := 0; c < 4; c++ {
					out[c][k] -= f[c] / s.Dy
				}
			}
			if j < s.Ny {
				k := s.idx(i, j)
				for c := 0; c < 4; c++ {
					out[c][k] += f[c] / s.Dy
				}
			}
		}
	})
	return out
}

// KHParams configures a Kelvin–Helmholtz setup.
type KHParams struct {
	Nx, Ny int
	Seed   uint64
	// HalfWidth is the half-width of the fast inner band around
	// mid-height (domain units). 0 means 0.25 (the classic double
	// shear layer).
	HalfWidth float64
	// ModeLo/ModeHi bound the perturbation wavenumbers. 0,0 means 2..13.
	ModeLo, ModeHi int
	// Amplitude scales the interface velocity perturbation. 0 means 0.05.
	Amplitude float64
	// VolAmplitude scales a domain-wide multi-scale velocity
	// perturbation (decaying background turbulence). 0 means 0.03.
	VolAmplitude float64
}

func (p KHParams) withDefaults() KHParams {
	if p.HalfWidth == 0 {
		p.HalfWidth = 0.25
	}
	if p.ModeLo == 0 && p.ModeHi == 0 {
		p.ModeLo, p.ModeHi = 2, 13
	}
	if p.Amplitude == 0 {
		p.Amplitude = 0.05
	}
	if p.VolAmplitude == 0 {
		p.VolAmplitude = 0.03
	}
	return p
}

// NewKelvinHelmholtz initializes a parameterized double shear layer
// with a multi-mode velocity perturbation at both interfaces. Varying
// HalfWidth and the mode band changes the correlation structure of the
// resulting velocityx field, which is how GenerateSlices emulates the
// variety of Miranda's through-the-mixing-layer slices.
func NewKelvinHelmholtz(p KHParams) *Sim {
	p = p.withDefaults()
	s := NewSim(p.Nx, p.Ny)
	rng := xrand.New(p.Seed)
	nModes := p.ModeHi - p.ModeLo + 1
	if nModes < 1 {
		nModes = 1
	}
	amps := make([]float64, nModes)
	phases := make([]float64, nModes)
	for m := range amps {
		amps[m] = rng.Float64()
		phases[m] = 2 * math.Pi * rng.Float64()
	}
	// background turbulence: a few random 2D Fourier modes per velocity
	// component, exciting fine structure away from the interfaces
	const nVol = 8
	type volMode struct {
		kx, ky     int
		au, av, ph float64
	}
	vol := make([]volMode, nVol)
	for m := range vol {
		vol[m] = volMode{
			kx: 2 + rng.Intn(10),
			ky: 2 + rng.Intn(10),
			au: rng.NormFloat64(),
			av: rng.NormFloat64(),
			ph: 2 * math.Pi * rng.Float64(),
		}
	}
	yLo, yHi := 0.5-p.HalfWidth, 0.5+p.HalfWidth
	env2 := (p.HalfWidth / 15) * (p.HalfWidth / 15) * 4
	for j := 0; j < p.Ny; j++ {
		y := (float64(j) + 0.5) * s.Dy
		for i := 0; i < p.Nx; i++ {
			x := (float64(i) + 0.5) * s.Dx
			inner := y > yLo && y < yHi
			u := -0.5
			rho := 1.0
			if inner {
				u = 0.5
				rho = 2.0
			}
			var vy float64
			env := math.Exp(-((y-yLo)*(y-yLo))/env2) + math.Exp(-((y-yHi)*(y-yHi))/env2)
			for m := 0; m < nModes; m++ {
				vy += amps[m] * math.Sin(2*math.Pi*float64(p.ModeLo+m)*x+phases[m])
			}
			vy *= p.Amplitude * env / float64(nModes)
			for _, vm := range vol {
				w := math.Sin(2*math.Pi*(float64(vm.kx)*x+float64(vm.ky)*y) + vm.ph)
				u += p.VolAmplitude * vm.au * w / nVol
				vy += p.VolAmplitude * vm.av * w / nVol
			}
			s.SetPrimitive(i, j, rho, u, vy, 2.5)
		}
	}
	return s
}

// SliceSet is the Miranda-substitute dataset: velocityx fields of
// instability runs with varying shear geometry and development time,
// playing the role of the equally spaced 2D slices through Miranda's 3D
// mixing layer (each of which sees a different turbulence intensity and
// correlation structure).
type SliceSet struct {
	Times  []float64
	Slices []*field.Field
}

// GenerateSlices produces count velocityx fields of size n×n. Field k
// comes from a Kelvin–Helmholtz run whose shear-layer half-width,
// perturbation band, and capture time all vary with k — narrow layers
// captured early are laminar and long-ranged, wide layers captured near
// tEnd are rolled up and heterogeneous. Each field is normalized to
// zero mean and unit variance so compressors see comparable dynamic
// ranges across the set, as the paper's per-slice analysis does
// implicitly through value-range-equivalent error bounds.
//
// Every slice is an independent simulation with its own deterministic
// seed, so the runs fan out over workers goroutines of the shared pool
// (0 means GOMAXPROCS) and land in their index slots — the set is
// bit-identical at any worker count.
func GenerateSlices(n, count int, tEnd float64, seed uint64, workers int) (*SliceSet, error) {
	if count <= 0 {
		return nil, fmt.Errorf("hydro: non-positive slice count %d", count)
	}
	if tEnd <= 0 {
		tEnd = 1.6
	}
	set := &SliceSet{Times: make([]float64, count), Slices: make([]*field.Field, count)}
	const maxSteps = 100_000
	err := parallel.ForErr(count, workers, func(k int) error {
		frac := float64(k) / math.Max(1, float64(count-1))
		// Slices sweep from the calm edge of the mixing layer (wide
		// laminar bands, weak background turbulence, long correlation
		// range) to its turbulent core (narrow rolled-up layers, strong
		// fine-scale energy, short range) — the variation a z-sweep
		// through Miranda's 3D volume exhibits.
		sim := NewKelvinHelmholtz(KHParams{
			Nx: n, Ny: n,
			Seed:         seed + uint64(k)*1000,
			HalfWidth:    0.30 - 0.22*frac,
			ModeLo:       2 + k%3,
			ModeHi:       8 + 2*(k%4),
			VolAmplitude: 0.005 + 0.12*frac*frac,
		})
		target := tEnd * (0.35 + 0.65*frac)
		if err := sim.Run(target, maxSteps); err != nil {
			return err
		}
		set.Times[k] = sim.Time()
		set.Slices[k] = normalize(sim.VelocityX())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}
