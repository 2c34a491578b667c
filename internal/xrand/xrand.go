// Package xrand provides a small, fast, deterministic random number
// generator (xoshiro256** seeded by SplitMix64) with the uniform and
// Gaussian variates the field generators need. Every experiment in the
// repository is reproducible because all randomness flows through
// explicitly seeded instances of this generator.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// create one per goroutine (see Split).
type Rand struct {
	s [4]uint64

	// cached second Gaussian variate from the polar method
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from the given seed via SplitMix64,
// which guarantees a well-mixed non-zero state for any seed value.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Split derives an independent generator from r's current state. The
// child is seeded from fresh output of r, so parent and child streams
// do not overlap in practice.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits. The state is
// stepped through local copies, which keeps the method under the
// inlining budget for the hot draw loops.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// It uses Lemire's multiply-shift method, bias-free: the high word of
// the 128-bit product v·n is the variate, and a draw whose low word
// falls below 2⁶⁴ mod n is rejected. The rejection test only matters
// when the low word is below n, so the common case is one draw and
// one multiply; the rare retry loop lives out of line in intnRetry.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		return r.intnRetry(bound, hi, lo)
	}
	return int(hi)
}

// intnRetry finishes an Intn draw whose low word fell below the bound:
// it redraws while the low word is below 2⁶⁴ mod bound.
func (r *Rand) intnRetry(bound, hi, lo uint64) int {
	thresh := -bound % bound
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), bound)
	}
	return int(hi)
}

// NormFloat64 returns a standard Gaussian variate using the Marsaglia
// polar method (deterministic given the stream, unlike ziggurat table
// edge cases across Go versions).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices via swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
