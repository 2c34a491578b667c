package core

import (
	"testing"

	"lossycorr/internal/gaussian"
	"lossycorr/internal/xrand"
)

// legacySingleRange is the verbatim pre-parallel construction of the
// single-range dataset, kept as the bit-identity reference for the
// fanned-out generator.
func legacySingleRange(cfg SingleRangeConfig) (*Dataset, error) {
	reps := cfg.Replicates
	if reps <= 0 {
		reps = 1
	}
	rng := xrand.New(cfg.Seed)
	ds := &Dataset{Name: "gaussian-single"}
	for _, a := range cfg.Ranges {
		s, err := gaussian.NewSampler(gaussian.Params{Rows: cfg.Rows, Cols: cfg.Cols, Range: a})
		if err != nil {
			return nil, err
		}
		for r := 0; r < reps; r++ {
			f, err := s.Sample(rng.Split())
			if err != nil {
				return nil, err
			}
			ds.Fields = append(ds.Fields, f)
			ds.Labels = append(ds.Labels, a)
		}
	}
	return ds, nil
}

func datasetsIdentical(t *testing.T, a, b *Dataset, label string) {
	t.Helper()
	if len(a.Fields) != len(b.Fields) || len(a.Labels) != len(b.Labels) {
		t.Fatalf("%s: size mismatch %d/%d vs %d/%d", label,
			len(a.Fields), len(a.Labels), len(b.Fields), len(b.Labels))
	}
	for i := range a.Fields {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s: label %d: %v vs %v", label, i, a.Labels[i], b.Labels[i])
		}
		fa, fb := a.Fields[i], b.Fields[i]
		if !fa.SameShape(fb) {
			t.Fatalf("%s: field %d shape mismatch", label, i)
		}
		for j := range fa.Data {
			if fa.Data[j] != fb.Data[j] {
				t.Fatalf("%s: field %d differs at element %d", label, i, j)
			}
		}
	}
}

// TestGenerateSingleRangeBitIdenticalToLegacy pins the parallel
// generator against the literal serial construction, at several worker
// counts.
func TestGenerateSingleRangeBitIdenticalToLegacy(t *testing.T) {
	cfg := SingleRangeConfig{Rows: 48, Cols: 40, Ranges: []float64{3, 7}, Replicates: 2, Seed: 5}
	ref, err := legacySingleRange(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 8} {
		cfg.Workers = w
		got, err := GenerateSingleRange(cfg)
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, ref, got, "single-range")
	}
}

// TestGenerateMultiRangeWorkerInvariant pins the multi-range generator
// across worker counts (seeds are pre-drawn serially, so every count
// must reproduce the Workers: 1 dataset bitwise).
func TestGenerateMultiRangeWorkerInvariant(t *testing.T) {
	cfg := MultiRangeConfig{Rows: 40, Cols: 40, RangePairs: [][2]float64{{2, 6}, {3, 9}},
		Replicates: 2, Seed: 9, Workers: 1}
	ref, err := GenerateMultiRange(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 8} {
		cfg.Workers = w
		got, err := GenerateMultiRange(cfg)
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, ref, got, "multi-range")
	}
}

// TestGenerateMirandaWorkerInvariant pins the per-slice simulation
// fan-out across worker counts.
func TestGenerateMirandaWorkerInvariant(t *testing.T) {
	cfg := MirandaConfig{Size: 32, Slices: 3, TEnd: 0.4, Seed: 4, Workers: 1}
	ref, err := GenerateMiranda(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		cfg.Workers = w
		got, err := GenerateMiranda(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Labels) != len(ref.Labels) {
			t.Fatalf("slice count %d vs %d", len(got.Labels), len(ref.Labels))
		}
		for i := range ref.Labels {
			if got.Labels[i] != ref.Labels[i] {
				t.Fatalf("workers=%d: time %d: %v vs %v", w, i, got.Labels[i], ref.Labels[i])
			}
		}
		datasetsIdentical(t, ref, got, "miranda")
	}
}
