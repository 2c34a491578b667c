package gaussian

import (
	"math"
	"testing"

	"lossycorr/internal/field"
)

func TestGenerate3DValidation(t *testing.T) {
	bad := []Params3D{
		{Nz: 0, Ny: 8, Nx: 8, Range: 2},
		{Nz: 8, Ny: 8, Nx: 8, Range: 0},
		{Nz: 8, Ny: 8, Nx: 8, Range: 2, Sigma2: -1},
	}
	for i, p := range bad {
		if _, err := Generate3D(p); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestGenerate3DMoments(t *testing.T) {
	var meanAcc, varAcc float64
	const reps = 6
	for i := 0; i < reps; i++ {
		v, err := Generate3D(Params3D{Nz: 24, Ny: 24, Nx: 24, Range: 3, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		var mean, m2 float64
		for j, val := range v.Data {
			d := val - mean
			mean += d / float64(j+1)
			m2 += d * (val - mean)
		}
		meanAcc += mean
		varAcc += m2 / float64(len(v.Data))
	}
	meanAcc /= reps
	varAcc /= reps
	if math.Abs(meanAcc) > 0.15 {
		t.Fatalf("ensemble mean %v", meanAcc)
	}
	if math.Abs(varAcc-1) > 0.25 {
		t.Fatalf("ensemble variance %v", varAcc)
	}
}

func TestGenerate3DDeterminism(t *testing.T) {
	p := Params3D{Nz: 12, Ny: 12, Nx: 12, Range: 2, Seed: 9}
	a, err := Generate3D(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate3D(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
}

func TestGenerate3DSmoothness(t *testing.T) {
	// larger range ⇒ higher lag-1 correlation along every axis
	corr := func(rang float64) float64 {
		v, err := Generate3D(Params3D{Nz: 24, Ny: 24, Nx: 24, Range: rang, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var num, den float64
		for z := 0; z < 24; z++ {
			for y := 0; y < 24; y++ {
				for x := 0; x+1 < 24; x++ {
					num += v.At(z, y, x) * v.At(z, y, x+1)
				}
			}
		}
		for _, val := range v.Data {
			den += val * val
		}
		return num / den
	}
	short := corr(1.2)
	long := corr(6)
	if short >= long {
		t.Fatalf("lag-1 correlation not increasing with range: %v vs %v", short, long)
	}
}

func TestGenerate3DSliceAnalysis(t *testing.T) {
	// 2D slices of a 3D field must carry the volume's correlation range
	v, err := Generate3D(Params3D{Nz: 8, Ny: 48, Nx: 48, Range: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// z-slices at the equal spacing of the paper's Miranda slicing
	for _, z := range []int{0, 4} {
		plane := 48 * 48
		s, err := field.FromData([]int{48, 48}, v.Data[z*plane:(z+1)*plane])
		if err != nil {
			t.Fatal(err)
		}
		if s.At(7, 9) != v.At(z, 7, 9) {
			t.Fatalf("slice %d does not view the volume", z)
		}
	}
}
