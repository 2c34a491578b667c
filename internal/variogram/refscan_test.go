package variogram

// The generic engine in ndim.go claims bitwise equality with the
// historical rank-specific scans. This file keeps copies of the
// pre-refactor 2D and 3D implementations as references — their loops
// and arithmetic verbatim, only their extents now read from the field's
// shape — and asserts the claim, serially and at several worker counts.

import (
	"context"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

// legacyExactScan2D is the pre-refactor serial 2D offset scan.
func legacyExactScan2D(g *field.Field, o Options) *Empirical {
	rows, cols := g.Shape[0], g.Shape[1]
	nb := o.MaxLag
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	maxSq := float64(o.MaxLag * o.MaxLag)
	for dr := 0; dr <= o.MaxLag; dr++ {
		cMin := -o.MaxLag
		if dr == 0 {
			cMin = 1
		}
		for dc := cMin; dc <= o.MaxLag; dc++ {
			d2 := float64(dr*dr + dc*dc)
			if d2 == 0 || d2 > maxSq {
				continue
			}
			bin := int(math.Round(math.Sqrt(d2)))
			if bin > nb {
				continue
			}
			r0, r1 := 0, rows-dr
			for r := r0; r < r1; r++ {
				c0, c1 := 0, cols
				if dc > 0 {
					c1 = cols - dc
				} else {
					c0 = -dc
				}
				base := r * cols
				off := (r+dr)*cols + dc
				for c := c0; c < c1; c++ {
					d := g.Data[base+c] - g.Data[off+c]
					sum[bin] += d * d
					cnt[bin]++
				}
			}
		}
	}
	return collect(sum, cnt)
}

// legacyExactScan3D is the pre-refactor serial 3D offset scan.
func legacyExactScan3D(v *field.Field, maxLag int) *Empirical {
	nz, ny, nx := v.Shape[0], v.Shape[1], v.Shape[2]
	sum := make([]float64, maxLag+1)
	cnt := make([]int64, maxLag+1)
	maxSq := float64(maxLag * maxLag)
	at := func(z, y, x int) float64 { return v.Data[(z*ny+y)*nx+x] }
	for dz := 0; dz <= maxLag; dz++ {
		yMin := -maxLag
		if dz == 0 {
			yMin = 0
		}
		for dy := yMin; dy <= maxLag; dy++ {
			xMin := -maxLag
			if dz == 0 && dy == 0 {
				xMin = 1
			}
			for dx := xMin; dx <= maxLag; dx++ {
				d2 := float64(dz*dz + dy*dy + dx*dx)
				if d2 == 0 || d2 > maxSq {
					continue
				}
				bin := int(math.Round(math.Sqrt(d2)))
				if bin > maxLag {
					continue
				}
				z1 := nz - dz
				for z := 0; z < z1; z++ {
					y0, y1 := 0, ny
					if dy > 0 {
						y1 = ny - dy
					} else {
						y0 = -dy
					}
					for y := y0; y < y1; y++ {
						x0, x1 := 0, nx
						if dx > 0 {
							x1 = nx - dx
						} else {
							x0 = -dx
						}
						for x := x0; x < x1; x++ {
							d := at(z, y, x) - at(z+dz, y+dy, x+dx)
							sum[bin] += d * d
							cnt[bin]++
						}
					}
				}
			}
		}
	}
	return collect(sum, cnt)
}

// legacySampledScan2D is the pre-refactor 2D pair sampler.
func legacySampledScan2D(g *field.Field, o Options) *Empirical {
	rows, cols := g.Shape[0], g.Shape[1]
	rng := xrand.New(o.Seed ^ 0x5eed5eed5eed5eed)
	nb := o.MaxLag
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	maxSq := o.MaxLag * o.MaxLag
	for p := 0; p < o.MaxPairs; p++ {
		r := rng.Intn(rows)
		c := rng.Intn(cols)
		dr := rng.Intn(2*o.MaxLag+1) - o.MaxLag
		dc := rng.Intn(2*o.MaxLag+1) - o.MaxLag
		d2 := dr*dr + dc*dc
		if d2 == 0 || d2 > maxSq {
			continue
		}
		r2, c2 := r+dr, c+dc
		if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
			continue
		}
		bin := int(math.Round(math.Sqrt(float64(d2))))
		if bin > nb {
			continue
		}
		d := g.At(r, c) - g.At(r2, c2)
		sum[bin] += d * d
		cnt[bin]++
	}
	return collect(sum, cnt)
}

func randomGrid(rows, cols int, seed uint64) *field.Field {
	return randomField([]int{rows, cols}, seed)
}

func randomVolume(nz, ny, nx int, seed uint64) *field.Field {
	return randomField([]int{nz, ny, nx}, seed)
}

func assertEmpiricalIdentical(t *testing.T, got, want *Empirical, label string) {
	t.Helper()
	if len(got.H) != len(want.H) {
		t.Fatalf("%s: %d bins, want %d", label, len(got.H), len(want.H))
	}
	for i := range want.H {
		if got.H[i] != want.H[i] || got.N[i] != want.N[i] {
			t.Fatalf("%s bin %d: (h=%v n=%d) want (h=%v n=%d)",
				label, i, got.H[i], got.N[i], want.H[i], want.N[i])
		}
		if got.Gamma[i] != want.Gamma[i] {
			t.Fatalf("%s bin %d: γ=%x want %x (not bit-identical)",
				label, i, got.Gamma[i], want.Gamma[i])
		}
	}
}

func TestExactScanMatchesLegacy2DBitwise(t *testing.T) {
	for _, tc := range []struct{ rows, cols, maxLag int }{
		{40, 40, 0}, {33, 57, 11}, {64, 16, 8}, {5, 5, 2},
	} {
		g := randomGrid(tc.rows, tc.cols, uint64(tc.rows*1000+tc.cols))
		o := Options{MaxLag: tc.maxLag, Exact: true}.withDefaults(g.Shape)
		want := legacyExactScan2D(g, o)
		for _, w := range []int{1, 2, 7} {
			ow := o
			ow.Workers = w
			got, err := exactScanData(context.Background(), g.Data, g.Shape, ow)
			if err != nil {
				t.Fatal(err)
			}
			assertEmpiricalIdentical(t, got, want,
				"exact 2D "+string(rune('0'+w))+" workers")
		}
	}
}

func TestExactScanMatchesLegacy3DBitwise(t *testing.T) {
	for _, tc := range []struct{ nz, ny, nx, maxLag int }{
		{12, 12, 12, 6}, {8, 14, 10, 4}, {4, 4, 4, 2},
	} {
		v := randomVolume(tc.nz, tc.ny, tc.nx, uint64(tc.nz*100+tc.nx))
		want := legacyExactScan3D(v, tc.maxLag)
		for _, w := range []int{1, 3, 16} {
			got, err := exactScanData(context.Background(), v.Data, v.Shape,
				Options{MaxLag: tc.maxLag, MaxPairs: 1, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			assertEmpiricalIdentical(t, got, want, "exact 3D")
		}
	}
}

func TestSampledScanMatchesLegacy2DBitwise(t *testing.T) {
	g := randomGrid(80, 70, 99)
	o := Options{MaxPairs: 50_000, Seed: 1234}.withDefaults(g.Shape)
	want := legacySampledScan2D(g, o)
	got, err := sampledScanData(context.Background(), g.Data, g.Shape, o)
	if err != nil {
		t.Fatal(err)
	}
	assertEmpiricalIdentical(t, got, want, "sampled 2D")
}

// TestGlobalExactScanParallelIdentical checks the satellite claim
// directly: the global exact scan is now parallel and bit-identical at
// any worker count.
func TestGlobalExactScanParallelIdentical(t *testing.T) {
	g := randomGrid(96, 96, 7)
	ref, err := Compute(bg, in64(g), Options{Exact: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 32} {
		e, err := Compute(bg, in64(g), Options{Exact: true, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		assertEmpiricalIdentical(t, e, ref, "global exact parallel")
	}
}

// TestLocalRangeStd3DSerialParallelIdentical covers the new 3D
// windowed statistic under the determinism contract.
func TestLocalRangeStd3DSerialParallelIdentical(t *testing.T) {
	v := randomVolume(16, 16, 16, 5)
	ref, err := LocalRangeStd(bg, in64(v), 8, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := LocalRangeStd(bg, in64(v), 8, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: %x want %x", w, got, ref)
		}
	}
}

func BenchmarkExactScanSerial(b *testing.B) {
	g := randomGrid(128, 128, 3)
	o := Options{Exact: true, Workers: 1}.withDefaults(g.Shape)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exactScanData(context.Background(), g.Data, g.Shape, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactScanParallel(b *testing.B) {
	g := randomGrid(128, 128, 3)
	o := Options{Exact: true, Workers: 0}.withDefaults(g.Shape)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exactScanData(context.Background(), g.Data, g.Shape, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalRangeStd3D(b *testing.B) {
	v := randomVolume(32, 32, 32, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalRangeStd(bg, in64(v), 16, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalRangeStd3DH12 is the windowed statistic at the shape
// the stream-3d bench workload analyzes: a 48³ volume in 12³ windows,
// where every scan row is at most 12 long.
func BenchmarkLocalRangeStd3DH12(b *testing.B) {
	v := randomVolume(48, 48, 48, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalRangeStd(bg, in64(v), 12, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
