package gaussian

import (
	"fmt"
	"math"

	"lossycorr/internal/fft"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// Params3D configures a 3D single-range Gaussian field — the paper's
// future-work "design of the statistics to a 3D context" needs 3D data
// with controllable correlation, and Miranda itself is natively 3D.
type Params3D struct {
	Nz, Ny, Nx int
	Range      float64
	Sigma2     float64
	Seed       uint64
}

// validate checks p and returns the extents of its embedding torus.
func (p Params3D) validate() ([]int, error) {
	if p.Nz <= 0 || p.Ny <= 0 || p.Nx <= 0 {
		return nil, fmt.Errorf("gaussian: non-positive volume size %dx%dx%d", p.Nz, p.Ny, p.Nx)
	}
	return torus(p.Range, p.Sigma2, p.Nz, p.Ny, p.Nx)
}

// Generate3D draws a stationary 3D Gaussian field with
// squared-exponential covariance Σ(d)=σ²·exp(−|d|²/a²) by circulant
// embedding on a 3D torus (the direct extension of the 2D sampler).
func Generate3D(p Params3D) (*grid.Volume, error) {
	ext, err := p.validate()
	if err != nil {
		return nil, err
	}
	sigma2 := p.Sigma2
	if sigma2 == 0 {
		sigma2 = 1
	}
	m, n, q := ext[0], ext[1], ext[2]
	buf := make([]complex128, m*n*q)
	inv2 := 1 / (p.Range * p.Range)
	for z := 0; z < m; z++ {
		dz := float64(z)
		if z > m/2 {
			dz = float64(m - z)
		}
		for y := 0; y < n; y++ {
			dy := float64(y)
			if y > n/2 {
				dy = float64(n - y)
			}
			base := (z*n + y) * q
			for x := 0; x < q; x++ {
				dx := float64(x)
				if x > q/2 {
					dx = float64(q - x)
				}
				buf[base+x] = complex(math.Exp(-(dz*dz+dy*dy+dx*dx)*inv2), 0)
			}
		}
	}
	if err := fft.ForwardND(buf, ext, 1); err != nil {
		return nil, err
	}
	sqrtLam := make([]float64, len(buf))
	for i, v := range buf {
		lam := real(v)
		if lam < 0 {
			lam = 0
		}
		sqrtLam[i] = math.Sqrt(lam)
	}
	rng := xrand.New(p.Seed)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(sqrtLam[i], 0)
	}
	if err := fft.InverseND(buf, ext, 1); err != nil {
		return nil, err
	}
	scale := math.Sqrt(sigma2) * math.Sqrt(float64(len(buf)))
	out := grid.NewVolume(p.Nz, p.Ny, p.Nx)
	for z := 0; z < p.Nz; z++ {
		for y := 0; y < p.Ny; y++ {
			for x := 0; x < p.Nx; x++ {
				out.Set(z, y, x, real(buf[(z*n+y)*q+x])*scale)
			}
		}
	}
	return out, nil
}
