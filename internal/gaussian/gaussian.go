// Package gaussian samples stationary 2D Gaussian random fields with
// squared-exponential covariance by exact circulant embedding — the
// synthetic "ideal" datasets of the paper (Section IV-A):
//
//	Σ(x_i, x_j) = σ²·exp(−|x_i−x_j|²/a²)
//
// with known, controllable correlation range a. Both single-range
// fields and equal-contribution multi-range fields are provided.
//
// Circulant embedding: the covariance kernel is embedded on a torus at
// least twice the field size; the torus covariance matrix is
// block-circulant, so its eigenvalues are the 2D DFT of the kernel's
// first row. Sampling multiplies complex white noise by the square
// root of the eigenvalues and inverse-transforms; the real and
// imaginary parts are two independent exact samples. The squared
// exponential decays so fast that negative embedding eigenvalues are
// negligible at 2× padding; they are clamped to zero and the clamp mass
// is exposed for tests.
package gaussian

import (
	"fmt"
	"math"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// Params configures a single-range field.
type Params struct {
	Rows, Cols int
	Range      float64 // correlation range a (grid-point units), > 0
	Sigma2     float64 // marginal variance σ²; 0 means 1
	Seed       uint64
}

// validate checks p and returns the extents of its embedding torus.
func (p Params) validate() ([]int, error) {
	if p.Rows <= 0 || p.Cols <= 0 {
		return nil, fmt.Errorf("gaussian: non-positive field size %dx%d", p.Rows, p.Cols)
	}
	return torus(p.Range, p.Sigma2, p.Rows, p.Cols)
}

// maxTorusLen caps the embedding's element count so its complex128
// buffer's byte size fits in an int.
const maxTorusLen = math.MaxInt / 16

// torus checks the covariance parameters and returns the power-of-two
// embedding extent of every axis, NextPow2(max(2n, 6·range)): at least
// twice the field, padded further when the range is comparable to the
// field size so the kernel wraps negligibly. Non-finite parameters, a
// range whose 1/range² overflows, and an extent or torus size that
// overflows are errors, reported before anything is allocated.
func torus(rang, sigma2 float64, dims ...int) ([]int, error) {
	if !(rang > 0 && rang <= math.MaxFloat64) {
		return nil, fmt.Errorf("gaussian: range %v is not positive and finite", rang)
	}
	if math.IsInf(1/(rang*rang), 0) {
		return nil, fmt.Errorf("gaussian: range %v too small: 1/range² overflows", rang)
	}
	if !(sigma2 >= 0 && sigma2 <= math.MaxFloat64) {
		return nil, fmt.Errorf("gaussian: variance %v is not non-negative and finite", sigma2)
	}
	const maxPad = 1 << 62 // NextPow2 of anything larger overflows int
	ext := make([]int, len(dims))
	total := 1
	for k, n := range dims {
		ok := n <= maxPad/2 && 6*rang <= maxPad
		if ok {
			ext[k] = fft.NextPow2(max(2*n, int(6*rang)))
			ok = ext[k] <= maxTorusLen/total
		}
		if !ok {
			return nil, fmt.Errorf("gaussian: embedding torus for size %v, range %v overflows", dims, rang)
		}
		total *= ext[k]
	}
	return ext, nil
}

// Sampler holds the precomputed embedding spectrum for one covariance
// so many independent fields can be drawn cheaply.
type Sampler struct {
	rows, cols int
	m, n       int       // embedding (torus) size, powers of two
	sqrtLam    []float64 // sqrt of clamped eigenvalues, length m*n
	clampMass  float64   // |negative eigenvalue mass| / total, diagnostics
	sigma      float64
}

// NewSampler builds the embedding for the given parameters.
func NewSampler(p Params) (*Sampler, error) {
	ext, err := p.validate()
	if err != nil {
		return nil, err
	}
	sigma2 := p.Sigma2
	if sigma2 == 0 {
		sigma2 = 1
	}
	m, n := ext[0], ext[1]

	// Kernel first row on the torus: distance is the wrapped distance.
	buf := make([]complex128, m*n)
	inv2 := 1 / (p.Range * p.Range)
	for r := 0; r < m; r++ {
		dr := float64(r)
		if r > m/2 {
			dr = float64(m - r)
		}
		for c := 0; c < n; c++ {
			dc := float64(c)
			if c > n/2 {
				dc = float64(n - c)
			}
			buf[r*n+c] = complex(math.Exp(-(dr*dr+dc*dc)*inv2), 0)
		}
	}
	if err := fft.ForwardND(buf, ext, 1); err != nil {
		return nil, err
	}
	sqrtLam := make([]float64, m*n)
	var neg, tot float64
	for i, v := range buf {
		lam := real(v)
		tot += math.Abs(lam)
		if lam < 0 {
			neg += -lam
			lam = 0
		}
		sqrtLam[i] = math.Sqrt(lam)
	}
	clamp := 0.0
	if tot > 0 {
		clamp = neg / tot
	}
	return &Sampler{
		rows: p.Rows, cols: p.Cols,
		m: m, n: n,
		sqrtLam:   sqrtLam,
		clampMass: clamp,
		sigma:     math.Sqrt(sigma2),
	}, nil
}

// ClampMass reports the relative magnitude of negative embedding
// eigenvalues that were clamped (should be ~0 for valid embeddings).
func (s *Sampler) ClampMass() float64 { return s.clampMass }

// SamplePair draws two independent fields from one complex transform
// (the real and imaginary parts of the embedded sample).
func (s *Sampler) SamplePair(rng *xrand.Rand) (*field.Field, *field.Field, error) {
	mn := s.m * s.n
	buf := make([]complex128, mn)
	for i := 0; i < mn; i++ {
		// complex white noise with E|ξ|² = 1 per component pair such
		// that Re and Im of the result are each N(0, C): ξ = (g1 + i·g2)
		// with g1, g2 ~ N(0,1).
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(s.sqrtLam[i], 0)
	}
	if err := fft.InverseND(buf, []int{s.m, s.n}, 1); err != nil {
		return nil, nil, err
	}
	// z = sqrt(MN) · IFFT2(sqrt(λ)·ξ) has Re, Im ~ N(0, C) independent.
	scale := s.sigma * math.Sqrt(float64(mn))
	a := field.New(s.rows, s.cols)
	b := field.New(s.rows, s.cols)
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			v := buf[r*s.n+c]
			a.Data[r*s.cols+c] = real(v) * scale
			b.Data[r*s.cols+c] = imag(v) * scale
		}
	}
	return a, b, nil
}

// Sample draws one field.
func (s *Sampler) Sample(rng *xrand.Rand) (*field.Field, error) {
	a, _, err := s.SamplePair(rng)
	return a, err
}

// Generate draws a single-range field in one call.
func Generate(p Params) (*field.Field, error) {
	s, err := NewSampler(p)
	if err != nil {
		return nil, err
	}
	return s.Sample(xrand.New(p.Seed))
}

// MultiParams configures a multi-range field: independent fields with
// the listed ranges are averaged with equal weights 1/√k so the total
// variance stays σ² — the paper's "two distinct correlation ranges
// contributing equally to the total field".
type MultiParams struct {
	Rows, Cols int
	Ranges     []float64
	Sigma2     float64
	Seed       uint64
}

// GenerateMulti draws an equal-contribution multi-range field.
func GenerateMulti(p MultiParams) (*field.Field, error) {
	if len(p.Ranges) == 0 {
		return nil, fmt.Errorf("gaussian: no ranges given")
	}
	for _, a := range p.Ranges {
		if _, err := (Params{Rows: p.Rows, Cols: p.Cols, Range: a, Sigma2: p.Sigma2}).validate(); err != nil {
			return nil, err
		}
	}
	rng := xrand.New(p.Seed)
	total := field.New(p.Rows, p.Cols)
	w := 1 / math.Sqrt(float64(len(p.Ranges)))
	for _, a := range p.Ranges {
		s, err := NewSampler(Params{Rows: p.Rows, Cols: p.Cols, Range: a, Sigma2: p.Sigma2})
		if err != nil {
			return nil, err
		}
		f, err := s.Sample(rng.Split())
		if err != nil {
			return nil, err
		}
		for i, v := range f.Data {
			total.Data[i] += w * v
		}
	}
	return total, nil
}

// TheoreticalVariogram returns the model semi-variogram of a
// single-range field: γ(h) = σ²(1 − exp(−h²/a²)). Used by tests and by
// the Figure 1 regenerator.
func TheoreticalVariogram(h, rang, sigma2 float64) float64 {
	if sigma2 == 0 {
		sigma2 = 1
	}
	return sigma2 * (1 - math.Exp(-h*h/(rang*rang)))
}
