package gaussian

import (
	"fmt"

	"lossycorr/internal/field"
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
// embedding on a 3D torus: the 2D sampler at rank 3.
func Generate3D(p Params3D) (*field.Field, error) {
	ext, err := p.validate()
	if err != nil {
		return nil, err
	}
	s, err := newSampler([]int{p.Nz, p.Ny, p.Nx}, ext, p.Range, p.Sigma2)
	if err != nil {
		return nil, err
	}
	return s.Sample(xrand.New(p.Seed))
}
