package variogram

import (
	"math"
	"testing"

	"lossycorr/internal/linalg"
	"lossycorr/internal/xrand"
)

// fitTwoLoop is Fit as it stood with the shape term 1 − exp(−h²/r²)
// computed again in the residual loop, kept as the oracle of the form
// that computes it once per bin.
func fitTwoLoop(e *Empirical) Model {
	hMax := e.H[len(e.H)-1]
	obj := func(r float64) (float64, float64) { // returns (rss, sill)
		var num, den float64
		for i, h := range e.H {
			f := 1 - math.Exp(-h*h/(r*r))
			w := float64(e.N[i])
			num += w * f * e.Gamma[i]
			den += w * f * f
		}
		if den == 0 {
			return math.Inf(1), 0
		}
		sill := num / den
		var rss float64
		for i, h := range e.H {
			f := sill * (1 - math.Exp(-h*h/(r*r)))
			d := f - e.Gamma[i]
			rss += float64(e.N[i]) * d * d
		}
		return rss, sill
	}
	lo, hi := 0.25, 8*hMax
	r := linalg.GoldenMinimize(func(x float64) float64 { rss, _ := obj(x); return rss }, lo, hi, 1e-4*hMax)
	rss, sill := obj(r)
	return Model{Sill: sill, Range: r, RangePaper: r * r, RSS: rss}
}

// TestFitMatchesTwoLoop pins Fit bit for bit to the two-loop form on
// seeded noisy empirical variograms of 2 to 200 bins, under, at and
// over the 64 bins Fit keeps on the stack, empty bins included.
func TestFitMatchesTwoLoop(t *testing.T) {
	for _, bins := range []int{2, 7, 16, 63, 64, 65, 128, 200} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(1000*seed + uint64(bins))
			r0 := 0.5 + float64(bins)*rng.Float64()
			sill := 0.1 + 2*rng.Float64()
			e := &Empirical{H: make([]float64, bins), Gamma: make([]float64, bins), N: make([]int64, bins)}
			for i := range e.H {
				h := float64(i + 1)
				e.H[i] = h
				e.Gamma[i] = sill * (1 - math.Exp(-h*h/(r0*r0))) * (1 + 0.2*rng.NormFloat64())
				e.N[i] = int64(rng.Intn(5000))
			}
			got, err := Fit(e)
			if err != nil {
				t.Fatal(err)
			}
			want := fitTwoLoop(e)
			for _, v := range [][2]float64{{got.Sill, want.Sill}, {got.Range, want.Range}, {got.RangePaper, want.RangePaper}, {got.RSS, want.RSS}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Fatalf("%d bins seed %d: fit %+v, two-loop form %+v", bins, seed, got, want)
				}
			}
		}
	}
}
