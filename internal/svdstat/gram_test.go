package svdstat

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/linalg"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

func gramRandomGrid(rows, cols int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	g := field.New(rows, cols)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return g
}

// levelOf is one window's truncation level: the batch path at width
// one.
func levelOf(w *field.Field, frac float64) (int, error) {
	var vals [1]float64
	var keep [1]bool
	err := windowLevels([]*field.Field{w}, vals[:], keep[:], frac)
	return int(vals[0]), err
}

// levelFull is the differential oracle for the Gram path: the truncation
// level the long way, as the statistic was computed before the Gram
// path. It centers a copy of the window, takes its singular values as
// the square roots of the clamped eigenvalues of AᵀA (or AAᵀ, whichever
// is smaller), and accumulates their squares. That is the same
// eigenproblem in a different order, so the two levels agree except
// where roundoff decides an exact tie at the threshold.
func levelFull(w *field.Field, frac float64) (int, error) {
	rows := w.Shape[0]
	cols := w.Len() / rows
	mean := w.Summary().Mean
	a := make([]float64, len(w.Data))
	for i, v := range w.Data {
		a[i] = v - mean
	}
	k, gramT := cols, rows < cols
	if gramT {
		k = rows
	}
	g := linalg.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var s float64
			if gramT {
				for t := 0; t < cols; t++ {
					s += a[i*cols+t] * a[j*cols+t]
				}
			} else {
				for t := 0; t < rows; t++ {
					s += a[t*cols+i] * a[t*cols+j]
				}
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	eig := make([]float64, k)
	err := linalg.SymEigenBatch([]linalg.Eigenproblem{{A: g.Data, D: eig, E: make([]float64, k)}})
	if err != nil {
		return 0, err
	}
	sv := make([]float64, k)
	for i, e := range eig {
		sv[i] = math.Sqrt(max(e, 0))
	}
	var total float64
	for _, s := range sv {
		total += s * s
	}
	if total == 0 {
		return 0, nil
	}
	var acc float64
	for k, s := range sv {
		acc += s * s
		if acc >= frac*total {
			return k + 1, nil
		}
	}
	return len(sv), nil
}

func gramSmoothGrid(rows, cols int) *field.Field {
	return fromFunc(rows, cols, func(r, c int) float64 {
		return float64(r)*0.3 + float64(c)*0.7 + 0.01*float64(r*c)
	})
}

// TestGramMatchesFullSVDLevels checks the Gram path against its oracle:
// over many windows (noisy, smooth, tall, wide, 3D-unfolded shapes)
// the Gram-eigenvalue levels must match the full-SVD levels. Both
// quantize the same spectrum, so any disagreement would mean an
// eigensolver deviation far above roundoff; the tolerance allowed here
// is one level on at most 2 % of windows, and exactness is asserted
// for the deterministic smooth cases.
func TestGramMatchesFullSVDLevels(t *testing.T) {
	type shape struct{ rows, cols int }
	shapes := []shape{{32, 32}, {16, 48}, {48, 16}, {8, 64}, {32, 1024}}
	for _, frac := range []float64{0.9, 0.99, 0.999} {
		var windows, off int
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 8; seed++ {
				g := gramRandomGrid(sh.rows, sh.cols, seed*977)
				full, err := levelFull(g, frac)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := levelOf(g, frac)
				if err != nil {
					t.Fatal(err)
				}
				windows++
				if full != fast {
					off++
					if d := full - fast; d < -1 || d > 1 {
						t.Fatalf("%dx%d frac=%v seed=%d: gram level %d vs full %d (>1 apart)",
							sh.rows, sh.cols, frac, seed, fast, full)
					}
				}
			}
		}
		if off*50 > windows { // > 2 % disagreement is beyond roundoff
			t.Fatalf("frac=%v: %d of %d windows disagree", frac, off, windows)
		}
	}
	for _, sh := range shapes[:4] {
		g := gramSmoothGrid(sh.rows, sh.cols)
		full, _ := levelFull(g, 0.99)
		fast, _ := levelOf(g, 0.99)
		if full != fast {
			t.Fatalf("smooth %dx%d: gram level %d != full %d", sh.rows, sh.cols, fast, full)
		}
	}
	// The one-level allowance is not slack: on an exact tie the two
	// orders of arithmetic do split, and by one level.
	w, frac := tieWindow(t)
	full, _ := levelFull(w, frac)
	fast, _ := levelOf(w, frac)
	if d := full - fast; d != 1 && d != -1 {
		t.Fatalf("tie window: gram level %d vs full %d, want one apart", fast, full)
	}
}

func TestGramConstantWindowZero(t *testing.T) {
	g := field.New(16, 16)
	for i := range g.Data {
		g.Data[i] = 3.25
	}
	k, err := levelOf(g, 0.99)
	if err != nil || k != 0 {
		t.Fatalf("constant window: level %d err %v, want 0", k, err)
	}
	if _, err := levelOf(g, 1.5); err == nil {
		t.Fatal("expected fraction validation error")
	}
}

// tieWindow searches seeded integer windows for one on which the Gram path
// and levelFull return different levels, and returns it with the
// variance fraction that separates them. A candidate is an integer
// offset plus two or three rank-one terms a·u·vᵀ, u and v distinct
// non-constant rows of a Sylvester–Hadamard matrix: the terms are
// centered and orthogonal, so the centered energies are exactly a²·h²
// and a cumulative energy share is an exact tie, where each path's
// roundoff alone decides the level.
func tieWindow(t *testing.T) (*field.Field, float64) {
	t.Helper()
	had := func(i, j int) float64 { return float64(1 - 2*(bits.OnesCount(uint(i&j))&1)) }
	rng := xrand.New(1)
	for range 1000 {
		h := 4 << rng.Intn(2)
		w := field.New(h, h)
		off := float64(rng.Intn(7) - 3)
		for i := range w.Data {
			w.Data[i] = off
		}
		us, vs := rng.Perm(h-1), rng.Perm(h-1)
		energy := make([]float64, 2+rng.Intn(2))
		for k := range energy {
			a := float64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				a = -a
			}
			energy[k] = a * a
			for r := 0; r < h; r++ {
				for c := 0; c < h; c++ {
					w.Data[r*h+c] += a * had(1+us[k], r) * had(1+vs[k], c)
				}
			}
		}
		slices.Sort(energy)
		slices.Reverse(energy)
		total := 0.0
		for _, e := range energy {
			total += e
		}
		acc := 0.0
		for _, e := range energy[:len(energy)-1] {
			acc += e
			frac := acc / total
			full, err := levelFull(w, frac)
			if err != nil {
				t.Fatal(err)
			}
			gram, err := levelOf(w, frac)
			if err != nil {
				t.Fatal(err)
			}
			if full != gram {
				return w, frac
			}
		}
	}
	t.Fatal("no searched window separates the Gram and full-SVD levels")
	return nil, 0
}

// TestLocalStd3DSerialParallelIdentical covers the unfolded 3D windows
// under the determinism contract.
func TestLocalStd3DSerialParallelIdentical(t *testing.T) {
	rng := xrand.New(9)
	v := field.New(24, 24, 24)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	f := in64(v)
	ref, err := LocalStd(bg, f, 8, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 16} {
		got, err := LocalStd(bg, f, 8, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: %x want %x", w, got, ref)
		}
	}
}

// TestNonFiniteWindowErrors pins the non-finite contract: one NaN or
// ±Inf in a window is linalg.ErrNonFinite on both lanes, never a level.
func TestNonFiniteWindowErrors(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := gramRandomGrid(64, 64, 5)
		g.Data[40*64+50] = bad // inside the last window
		opts := Options{Workers: 1}
		if _, err := LocalStd(bg, in64(g), 32, opts); !errors.Is(err, linalg.ErrNonFinite) {
			t.Errorf("%v: err %v, want ErrNonFinite", bad, err)
		}
		if _, err := LocalStd(bg, stat.Source{F32: g.Narrow()}, 32, opts); !errors.Is(err, linalg.ErrNonFinite) {
			t.Errorf("%v, float32: err %v, want ErrNonFinite", bad, err)
		}
	}
}

func benchLevel(b *testing.B, rows, cols int) {
	g := gramRandomGrid(rows, cols, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := levelOf(g, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruncationLevelGram(b *testing.B)       { benchLevel(b, 32, 32) }
func BenchmarkTruncationLevelGramUnfold(b *testing.B) { benchLevel(b, 32, 1024) }

// BenchmarkLocalSVD is the kernel's cost inside one analyze-cold
// request: the Gram path over a 256² field at H=32 (64
// windows), serial so ns/op is the summed per-window cost.
func BenchmarkLocalSVD(b *testing.B) {
	f := in64(gramRandomGrid(256, 256, 13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalStd(bg, f, 32, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalStdFull3D(b *testing.B) {
	rng := xrand.New(3)
	v := field.New(32, 32, 32)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	f := in64(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalStd(bg, f, 16, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
