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

func gramSmoothGrid(rows, cols int) *field.Field {
	return fromFunc(rows, cols, func(r, c int) float64 {
		return float64(r)*0.3 + float64(c)*0.7 + 0.01*float64(r*c)
	})
}

// TestGramMatchesFullSVDLevels is the fast path's equivalence test:
// over many windows (noisy, smooth, tall, wide, 3D-unfolded shapes)
// the Gram-eigenvalue levels must match the full-SVD levels. Both
// paths quantize the same spectrum, so any disagreement would mean an
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
				full, err := levelFull(g.Data, sh.rows, sh.cols, g.Summary().Mean, frac)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := levelGram(g.Data, sh.rows, sh.cols, frac)
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
		full, _ := levelFull(g.Data, sh.rows, sh.cols, g.Summary().Mean, 0.99)
		fast, _ := levelGram(g.Data, sh.rows, sh.cols, 0.99)
		if full != fast {
			t.Fatalf("smooth %dx%d: gram level %d != full %d", sh.rows, sh.cols, fast, full)
		}
	}
}

func TestGramConstantWindowZero(t *testing.T) {
	g := field.New(16, 16)
	for i := range g.Data {
		g.Data[i] = 3.25
	}
	k, err := levelGram(g.Data, 16, 16, 0.99)
	if err != nil || k != 0 {
		t.Fatalf("constant window: level %d err %v, want 0", k, err)
	}
	if _, err := levelGram(g.Data, 16, 16, 1.5); err == nil {
		t.Fatal("expected fraction validation error")
	}
}

// tieWindow searches seeded integer windows for one on which levelGram
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
			full, err := levelFull(w.Data, h, h, w.Summary().Mean, frac)
			if err != nil {
				t.Fatal(err)
			}
			gram, err := levelGram(w.Data, h, h, frac)
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

// TestGramDefaultPinsBothDirections pins the release flip: the zero
// value must take the Gram fast path and GramOff the historical
// full-SVD arithmetic. The field is a window on which the two level
// functions disagree (tieWindow) beside a constant one, so each mode's
// statistic matches its own level function (levelGram, levelFull)
// applied window by window, and not the other's.
func TestGramDefaultPinsBothDirections(t *testing.T) {
	w, frac := tieWindow(t)
	h := w.Shape[0]
	f := field.New(h, 2*h) // w, then a constant window
	for r := 0; r < h; r++ {
		copy(f.Data[r*2*h:r*2*h+h], w.Data[r*h:(r+1)*h])
	}
	for _, c := range []struct {
		mode  GramMode
		level func(w *field.Field) (int, error)
	}{
		{GramDefault, func(w *field.Field) (int, error) {
			return levelGram(w.Data, w.Shape[0], w.Len()/w.Shape[0], frac)
		}},
		{GramOff, func(w *field.Field) (int, error) {
			return levelFull(w.Data, w.Shape[0], w.Len()/w.Shape[0], w.Summary().Mean, frac)
		}},
	} {
		got, err := LocalStd(bg, in64(f), h, Options{Gram: c.mode, Frac: frac})
		if err != nil {
			t.Fatal(err)
		}
		var levels []float64
		for _, origin := range f.TileOrigins(h) {
			k, err := c.level(f.Window(origin, h))
			if err != nil {
				t.Fatal(err)
			}
			levels = append(levels, float64(k))
		}
		if want := linalg.Std(levels); got != want {
			t.Fatalf("mode %d: %x != per-window path %x", c.mode, got, want)
		}
	}
}

// TestLocalStdGramCloseToFull checks the statistic built on the fast
// path tracks the full-SVD path closely on a realistic field.
func TestLocalStdGramCloseToFull(t *testing.T) {
	f := in64(gramRandomGrid(128, 128, 42))
	full, err := LocalStd(bg, f, 32, Options{Gram: GramOff})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := LocalStd(bg, f, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := full - fast
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.25 {
		t.Fatalf("gram statistic %v too far from full %v", fast, full)
	}
}

// TestLocalStd3DSerialParallelIdentical covers the unfolded 3D windows
// under the determinism contract, on both paths.
func TestLocalStd3DSerialParallelIdentical(t *testing.T) {
	rng := xrand.New(9)
	v := field.New(24, 24, 24)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	f := in64(v)
	for _, gram := range []GramMode{GramOff, GramDefault} {
		ref, err := LocalStd(bg, f, 8, Options{Workers: 1, Gram: gram})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{3, 16} {
			got, err := LocalStd(bg, f, 8, Options{Workers: w, Gram: gram})
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("gram=%v workers=%d: %x want %x", gram, w, got, ref)
			}
		}
	}
}

// TestNonFiniteWindowErrors pins the non-finite contract: one NaN or
// ±Inf in a window is linalg.ErrNonFinite on both level paths and both
// lanes, never a level.
func TestNonFiniteWindowErrors(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := gramRandomGrid(64, 64, 5)
		g.Data[40*64+50] = bad // inside the last window
		for _, gram := range []GramMode{GramDefault, GramOff} {
			opts := Options{Gram: gram, Workers: 1}
			if _, err := LocalStd(bg, in64(g), 32, opts); !errors.Is(err, linalg.ErrNonFinite) {
				t.Errorf("%v, gram=%v: err %v, want ErrNonFinite", bad, gram, err)
			}
			if _, err := LocalStd(bg, stat.Source{F32: g.Narrow()}, 32, opts); !errors.Is(err, linalg.ErrNonFinite) {
				t.Errorf("%v, gram=%v, float32: err %v, want ErrNonFinite", bad, gram, err)
			}
		}
	}
}

func benchLevel(b *testing.B, rows, cols int, gram bool) {
	g := gramRandomGrid(rows, cols, 7)
	mean := g.Summary().Mean
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if gram {
			_, err = levelGram(g.Data, rows, cols, 0.99)
		} else {
			_, err = levelFull(g.Data, rows, cols, mean, 0.99)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruncationLevelFull(b *testing.B)       { benchLevel(b, 32, 32, false) }
func BenchmarkTruncationLevelGram(b *testing.B)       { benchLevel(b, 32, 32, true) }
func BenchmarkTruncationLevelFullUnfold(b *testing.B) { benchLevel(b, 32, 1024, false) }
func BenchmarkTruncationLevelGramUnfold(b *testing.B) { benchLevel(b, 32, 1024, true) }

// BenchmarkLocalSVD is the kernel's cost inside one analyze-cold
// request: the default Gram path over a 256² field at H=32 (64
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
