package core

// Golden bit-identity suite for the kernel-engine refactor. The
// expected bits below were captured from the pre-refactor pipeline
// (the per-statistic variant matrix of AnalyzeField / AnalyzeField32 /
// AnalyzeReaderCtx entry points, before internal/stat existed) on the
// exact fields reproduced here. Every case must match bit for bit at
// every worker count — the engine owns lanes, streaming, and fan-out
// now, and this suite is the proof that none of that moved a single
// ULP. If a case fails, the engine changed arithmetic or fold order;
// do not regenerate the values, fix the engine.

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// goldenCase pins one (field, lane, source) combination of the
// pre-refactor pipeline. The bits are IEEE-754 float64 payloads of the
// four built-in statistics.
type goldenCase struct {
	name   string
	rank3  bool  // 3D volume instead of 2D grid
	lane32 bool  // float32 lane (Narrow()ed field / float32 file)
	vfft   bool  // FFT exact engine for the global variogram
	budget int64 // stream with this MemBudget; 0 = in-RAM

	globalRangeBits   uint64
	globalSillBits    uint64
	localRangeStdBits uint64
	localSVDStdBits   uint64
}

var goldenCases = []goldenCase{
	{name: "r2/f64/ram", globalRangeBits: 0x4027785b5e547ba1, globalSillBits: 0x3fe9017a08e46eec, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r2/f64/ram/vfft", vfft: true, globalRangeBits: 0x4027b42ea6ca88e5, globalSillBits: 0x3fe8e190bda2e93e, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r2/f32/ram", lane32: true, globalRangeBits: 0x4027785b5e547ba1, globalSillBits: 0x3fe9017a08ed947b, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r2/f32/ram/vfft", lane32: true, vfft: true, globalRangeBits: 0x4027b42ea6ca88e5, globalSillBits: 0x3fe8e190bdb8e15d, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r3/f64/ram", rank3: true, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f624a38, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
	{name: "r3/f64/ram/vfft", rank3: true, vfft: true, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f624a64, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
	{name: "r3/f32/ram", rank3: true, lane32: true, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f0cfe04, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
	{name: "r2/f64/stream40k", budget: 40960, globalRangeBits: 0x4027785b5e547ba1, globalSillBits: 0x3fe9017a08e46eec, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r2/f64/stream24k", budget: 24576, globalRangeBits: 0x4027785b5e547ba1, globalSillBits: 0x3fe9017a08e46eec, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r2/f32/stream16k", lane32: true, budget: 16384, globalRangeBits: 0x4027785b5e547ba1, globalSillBits: 0x3fe9017a08ed947b, localRangeStdBits: 0x3ffaf506d8fed1b9, localSVDStdBits: 0x3fe795bb2e369bbd},
	{name: "r3/f64/stream64k", rank3: true, budget: 65536, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f624a38, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
	{name: "r3/f64/stream36k", rank3: true, budget: 36864, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f624a38, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
	{name: "r3/f32/stream28k", rank3: true, lane32: true, budget: 28672, globalRangeBits: 0x401675e64529911e, globalSillBits: 0x3ff049ab3f0cfe04, localRangeStdBits: 0x3fef18d925f43518, localSVDStdBits: 0x3fdd7b29f9c442a9},
}

// goldenField reproduces the exact field the golden bits were captured
// on: a 96×80 grid (range 12, seed 7) or a 28×24×20 volume (range 6,
// seed 3).
func goldenField(t testing.TB, rank3 bool) *field.Field {
	t.Helper()
	if rank3 {
		v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 28, Ny: 24, Nx: 20, Range: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return field.FromVolume(v)
	}
	g, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 80, Range: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return field.FromGrid(g)
}

// goldenReader writes the field's lane to a temp file and opens it as
// a TileReader, reproducing the dataset-backed golden runs.
func goldenReader(t testing.TB, write func(io.Writer) error) *field.TileReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.bin")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := field.OpenTileReader(path, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func (c goldenCase) window() int {
	if c.rank3 {
		return 8
	}
	return 32
}

func (c goldenCase) run(t *testing.T, workers int) Statistics {
	t.Helper()
	f := goldenField(t, c.rank3)
	opts := AnalysisOptions{Window: c.window(), Workers: workers, VariogramFFT: c.vfft, MemBudget: c.budget}
	switch {
	case c.budget > 0:
		var tr *field.TileReader
		if c.lane32 {
			tr = goldenReader(t, f.Narrow().WriteBinary)
		} else {
			tr = goldenReader(t, f.WriteBinary)
		}
		s, err := AnalyzeReaderCtx(context.Background(), tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case c.lane32:
		s, err := AnalyzeField32Ctx(context.Background(), f.Narrow(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		s, err := AnalyzeFieldCtx(context.Background(), f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func (c goldenCase) check(t *testing.T, s Statistics) {
	t.Helper()
	got := [4]uint64{
		math.Float64bits(s.GlobalRange()),
		math.Float64bits(s.GlobalSill()),
		math.Float64bits(s.LocalRangeStd()),
		math.Float64bits(s.LocalSVDStd()),
	}
	want := [4]uint64{c.globalRangeBits, c.globalSillBits, c.localRangeStdBits, c.localSVDStdBits}
	names := [4]string{StatGlobalRange, StatGlobalSill, StatLocalRangeStd, StatLocalSVDStd}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: %#016x (%v) != golden %#016x (%v)",
				names[i], got[i], math.Float64frombits(got[i]), want[i], math.Float64frombits(want[i]))
		}
	}
}

// TestGoldenBitIdentity pins the engine's results to the pre-refactor
// pipeline, across ranks, lanes, the FFT variogram, and in-RAM versus
// streamed sources at several budgets — each at worker counts 1, 4,
// and 8. This is the refactor's acceptance gate: any drift from the
// historical bits fails, at any combination.
func TestGoldenBitIdentity(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4, 8} {
				c.check(t, c.run(t, workers))
			}
		})
	}
}

// TestGoldenSelectionSubset runs the golden field through a statistic
// subset: the selected statistics must carry exactly the golden bits,
// and the deselected ones must be absent from the result set (not
// zero), which is what keeps the JSON wire format honest.
func TestGoldenSelectionSubset(t *testing.T) {
	c := goldenCases[0] // r2/f64/ram
	f := goldenField(t, c.rank3)
	s, err := AnalyzeFieldCtx(context.Background(), f,
		AnalysisOptions{Window: c.window(), Stats: []string{"variogram", "svd"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(s.GlobalRange()); got != c.globalRangeBits {
		t.Errorf("globalRange %#016x != golden %#016x", got, c.globalRangeBits)
	}
	if got := math.Float64bits(s.LocalSVDStd()); got != c.localSVDStdBits {
		t.Errorf("localSVDStd %#016x != golden %#016x", got, c.localSVDStdBits)
	}
	if s.Has(StatLocalRangeStd) {
		t.Errorf("deselected localrange present in %v", s)
	}
	if len(s) != 3 {
		t.Errorf("want exactly globalRange, globalSill, localSVDStd; got %v", s)
	}
}
