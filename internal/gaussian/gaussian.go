// Package gaussian samples stationary 2D and 3D Gaussian random fields
// with squared-exponential covariance by exact circulant embedding — the
// synthetic "ideal" datasets of the paper (Section IV-A):
//
//	Σ(x_i, x_j) = σ²·exp(−|x_i−x_j|²/a²)
//
// with known, controllable correlation range a. Both single-range
// fields and equal-contribution multi-range fields are provided.
//
// Circulant embedding: the covariance kernel is embedded on a torus at
// least twice the field size; the torus covariance matrix is
// block-circulant, so its eigenvalues are the DFT of the kernel's
// first row. Sampling multiplies complex white noise by the square
// root of the eigenvalues and inverse-transforms; the real and
// imaginary parts are two independent exact samples. The squared
// exponential decays so fast that negative embedding eigenvalues are
// negligible at 2× padding; they are clamped to zero and the clamp mass
// is recorded for the tests.
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
// so many independent fields can be drawn cheaply. One sampler serves
// every rank: the 2D fields of Params and the volumes of Params3D.
type Sampler struct {
	dims      []int     // field extents
	ext       []int     // embedding (torus) extents, powers of two
	sqrtLam   []float64 // sqrt of clamped eigenvalues, one per torus point
	clampMass float64   // |negative eigenvalue mass| / total, diagnostics
	sigma     float64
}

// NewSampler builds the embedding for the given parameters.
func NewSampler(p Params) (*Sampler, error) {
	ext, err := p.validate()
	if err != nil {
		return nil, err
	}
	return newSampler([]int{p.Rows, p.Cols}, ext, p.Range, p.Sigma2)
}

// newSampler builds the embedding of a field of extents dims with the
// given covariance on the torus ext, as torus returned it for dims.
func newSampler(dims, ext []int, rang, sigma2 float64) (*Sampler, error) {
	if sigma2 == 0 {
		sigma2 = 1
	}
	// sq[k][j] is the squared wrapped distance of torus index j along
	// axis k.
	sq := make([][]float64, len(ext))
	total := 1
	for k, e := range ext {
		sq[k] = make([]float64, e)
		for j := range sq[k] {
			d := float64(min(j, e-j))
			sq[k][j] = d * d
		}
		total *= e
	}

	// Kernel first row on the torus: the squared distance sums the
	// squared wrapped distances in axis order, one torus row (last
	// axis) at a time. The squares are rounded in sq, so no target can
	// fuse one into the sum.
	buf := make([]complex128, total)
	inv2 := 1 / (rang * rang)
	last := len(ext) - 1
	lead := make([]int, last) // the leading-axis indices of the row
	for row := 0; row < total; row += ext[last] {
		var d2 float64
		for k, j := range lead {
			d2 += sq[k][j]
		}
		for j, s := range sq[last] {
			buf[row+j] = complex(math.Exp(-(d2+s)*inv2), 0)
		}
		for k := last - 1; k >= 0; k-- {
			if lead[k]++; lead[k] < ext[k] {
				break
			}
			lead[k] = 0
		}
	}
	if err := fft.ForwardND(buf, ext, 1); err != nil {
		return nil, err
	}
	sqrtLam := make([]float64, total)
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
		dims: dims, ext: ext,
		sqrtLam:   sqrtLam,
		clampMass: clamp,
		sigma:     math.Sqrt(sigma2),
	}, nil
}

// SamplePair draws two independent fields from one complex transform
// (the real and imaginary parts of the embedded sample).
func (s *Sampler) SamplePair(rng *xrand.Rand) (*field.Field, *field.Field, error) {
	return s.sample(rng, true)
}

// Sample draws one field: the real part of the embedded sample, as the
// first field of SamplePair, with no second field filled.
func (s *Sampler) Sample(rng *xrand.Rand) (*field.Field, error) {
	a, _, err := s.sample(rng, false)
	return a, err
}

// sample draws the embedded complex sample and reads its real part into
// one field and, when pair is set, its imaginary part into a second.
func (s *Sampler) sample(rng *xrand.Rand, pair bool) (*field.Field, *field.Field, error) {
	buf := make([]complex128, len(s.sqrtLam))
	for i := range buf {
		// complex white noise with E|ξ|² = 1 per component pair such
		// that Re and Im of the result are each N(0, C): ξ = (g1 + i·g2)
		// with g1, g2 ~ N(0,1).
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(s.sqrtLam[i], 0)
	}
	if err := fft.InverseND(buf, s.ext, 1); err != nil {
		return nil, nil, err
	}
	// z = sqrt(N) · IFFT(sqrt(λ)·ξ) over the N torus points has Re, Im
	// ~ N(0, C) independent; the field is the torus's leading corner.
	scale := s.sigma * math.Sqrt(float64(len(buf)))
	a := field.New(s.dims...)
	var b *field.Field
	if pair {
		b = field.New(s.dims...)
	}
	field.EachRun(s.ext, nil, s.dims, nil, s.dims, func(src, dst, n int) bool {
		for i, v := range buf[src : src+n] {
			a.Data[dst+i] = real(v) * scale
		}
		if b != nil {
			for i, v := range buf[src : src+n] {
				b.Data[dst+i] = imag(v) * scale
			}
		}
		return true
	})
	return a, b, nil
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
