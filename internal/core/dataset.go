package core

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/hydro"
	"lossycorr/internal/parallel"
	"lossycorr/internal/xrand"
)

// Dataset is a named collection of rank-2 fields with optional generating
// labels (true correlation range for synthetic fields, snapshot time
// for hydro slices).
type Dataset struct {
	Name   string
	Fields []*field.Field
	Labels []float64
}

// SingleRangeConfig generates the paper's first dataset: single
// correlation range Gaussian fields, one or more replicates per range.
type SingleRangeConfig struct {
	Rows, Cols int
	Ranges     []float64 // generating correlation ranges
	Replicates int       // fields per range; 0 means 1
	Seed       uint64
	// Workers bounds the goroutines of the generation fan-out (sampler
	// embeddings per range, then one field per replicate, each with a
	// pre-drawn seed). 0 means GOMAXPROCS; results are bit-identical
	// at any worker count.
	Workers int
}

// PaperRanges is a representative sweep of correlation ranges relative
// to a field size of ~256; scaled copies are used for other sizes.
var PaperRanges = []float64{2, 4, 8, 12, 16, 24, 32, 48}

// GenerateSingleRange draws the single-range Gaussian dataset.
// Per-replicate generators are split off the config seed serially (in
// the historical order), then sampler embeddings and field draws fan
// out over the shared worker pool — the dataset is bit-identical to
// the legacy serial construction at any worker count.
func GenerateSingleRange(cfg SingleRangeConfig) (*Dataset, error) {
	if len(cfg.Ranges) == 0 {
		return nil, fmt.Errorf("core: no ranges configured")
	}
	reps := cfg.Replicates
	if reps <= 0 {
		reps = 1
	}
	rng := xrand.New(cfg.Seed)
	total := len(cfg.Ranges) * reps
	rngs := make([]*xrand.Rand, total)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	samplers := make([]*gaussian.Sampler, len(cfg.Ranges))
	if err := parallel.ForErr(len(cfg.Ranges), cfg.Workers, func(k int) error {
		s, err := gaussian.NewSampler(gaussian.Params{Rows: cfg.Rows, Cols: cfg.Cols, Range: cfg.Ranges[k]})
		if err != nil {
			return err
		}
		samplers[k] = s
		return nil
	}); err != nil {
		return nil, err
	}
	ds := &Dataset{Name: "gaussian-single",
		Fields: make([]*field.Field, total), Labels: make([]float64, total)}
	if err := parallel.ForErr(total, cfg.Workers, func(i int) error {
		k := i / reps
		f, err := samplers[k].Sample(rngs[i])
		if err != nil {
			return err
		}
		ds.Fields[i] = f
		ds.Labels[i] = cfg.Ranges[k]
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

// MultiRangeConfig generates the multi-range dataset: pairs of distinct
// ranges contributing equally (the paper's increased-complexity case).
type MultiRangeConfig struct {
	Rows, Cols int
	RangePairs [][2]float64
	Replicates int
	Seed       uint64
	// Workers bounds the generation fan-out; 0 means GOMAXPROCS.
	// Results are bit-identical at any worker count.
	Workers int
}

// PaperRangePairs pairs a short and a long range, equal contribution.
var PaperRangePairs = [][2]float64{
	{2, 8}, {2, 16}, {4, 16}, {4, 32}, {8, 32}, {8, 48}, {12, 48}, {16, 48},
}

// GenerateMultiRange draws the multi-range Gaussian dataset. Labels
// carry the geometric mean of each pair (a scalar summary used only
// for bookkeeping; the statistics on the fields are what the analysis
// uses).
func GenerateMultiRange(cfg MultiRangeConfig) (*Dataset, error) {
	if len(cfg.RangePairs) == 0 {
		return nil, fmt.Errorf("core: no range pairs configured")
	}
	reps := cfg.Replicates
	if reps <= 0 {
		reps = 1
	}
	rng := xrand.New(cfg.Seed)
	total := len(cfg.RangePairs) * reps
	seeds := make([]uint64, total)
	for i := range seeds { // drawn serially, in the historical order
		seeds[i] = rng.Uint64()
	}
	ds := &Dataset{Name: "gaussian-multi",
		Fields: make([]*field.Field, total), Labels: make([]float64, total)}
	if err := parallel.ForErr(total, cfg.Workers, func(i int) error {
		pair := cfg.RangePairs[i/reps]
		f, err := gaussian.GenerateMulti(gaussian.MultiParams{
			Rows: cfg.Rows, Cols: cfg.Cols,
			Ranges: pair[:],
			Seed:   seeds[i],
		})
		if err != nil {
			return err
		}
		ds.Fields[i] = f
		ds.Labels[i] = geoMean(pair[0], pair[1])
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

func geoMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Sqrt(a * b)
}

// MirandaConfig generates the Miranda-substitute dataset: velocityx
// snapshots of a Kelvin–Helmholtz run (see internal/hydro and
// DESIGN.md for the substitution rationale).
type MirandaConfig struct {
	Size   int     // square field edge
	Slices int     // number of snapshots
	TEnd   float64 // final simulation time; 0 means 1.6
	Seed   uint64
	// Workers bounds the per-slice simulation fan-out (each slice is an
	// independent run with its own seed); 0 means GOMAXPROCS. Results
	// are bit-identical at any worker count.
	Workers int
}

// GenerateMiranda runs the hydro solver and collects slices, fanning
// the independent per-slice simulations out over the worker pool.
func GenerateMiranda(cfg MirandaConfig) (*Dataset, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("core: non-positive size %d", cfg.Size)
	}
	set, err := hydro.GenerateSlicesWith(cfg.Size, cfg.Slices, cfg.TEnd, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Name: "miranda-velocityx"}
	ds.Fields = set.Slices
	ds.Labels = set.Times
	return ds, nil
}
