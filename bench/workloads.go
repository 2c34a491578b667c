package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
	"lossycorr/internal/xrand"
)

// workload is one traffic mix of the benchmark: a closed loop of clients
// over inputs made from the seed.
type workload struct {
	workloadSpec
	clients int
	// prepare makes the workload's inputs from the seed for the given
	// number of clients. Its time is reported as gen_s, outside every
	// metric.
	prepare func(seed uint64, sz sizes, clients int) (load, error)
}

var workloads = []workload{
	{workloadSpec{"analyze-cold", "distinct 256^2 fields POSTed to /v1/analyze with default options: the three stat kernels do ~95% of the work, no cache hit, no FFT, no codec"},
		2, prepareAnalyzeCold},
	{workloadSpec{"vfft-cache", "vfft variogram requests where 3 in 4 repeat a cached 512^2 payload: hits are ingest and encode, misses the f64/f32 spectral variogram"},
		2, prepareVFFTCache},
	{workloadSpec{"measure-sweep", "the paper's Fig. 3 pipeline through core: one client measures a 96^2 field per op with 3 codecs x 4 bounds, so the codecs dominate"},
		1, prepareMeasureSweep},
	{workloadSpec{"stream-3d", "the windowed kernels at rank 3 over f32 volumes read in tiles under half the payload as budget: the out-of-core path of analyze-cold"},
		2, prepareStream3D},
}

// sizes fixes the input sizes of every workload. The smoke test runs the
// whole harness at tinySizes.
type sizes struct {
	coldEdge   int           // analyze-cold field edge
	vfftEdge   int           // vfft-cache field edge
	hot        int           // cached vfft-cache payloads, half on each lane
	sweepEdge  int           // measure-sweep field edge
	ladder     int           // measure-sweep ranges, 2..32
	ladderReps int           // measure-sweep fields per range
	volEdge    int           // stream-3d volume edge
	volWindow  int           // stream-3d window edge H
	volumes    int           // stream-3d volumes
	minOps     int           // ops a timed window must complete
	setups     int           // fewest set-ups per run; setup_s is their median
	setupTime  time.Duration // least time spent setting up per run
	verify     int           // ops recomputed after the window
}

var fullSizes = sizes{
	coldEdge: 256, vfftEdge: 512, hot: 16,
	sweepEdge: 96, ladder: 12, ladderReps: 4,
	volEdge: 48, volWindow: 12, volumes: 4,
	minOps: 100, setups: 5, setupTime: 2 * time.Second, verify: 3,
}

var tinySizes = sizes{
	coldEdge: 64, vfftEdge: 64, hot: 4,
	sweepEdge: 32, ladder: 4, ladderReps: 1,
	volEdge: 16, volWindow: 8, volumes: 2,
	minOps: 1, setups: 1, verify: 1,
}

// load is a workload with its inputs made. setUp builds the program
// state the ops run against and runs the warm-up ops; every other method
// needs it, and tearDown releases it.
type load interface {
	setUp() error
	tearDown()
	// op runs client c's op i end to end: it makes the op's input
	// untimed, times the call into the program, and checks the output.
	// traced ops may use instrumented inputs.
	op(c, i int, traced bool) outcome
	// replay repeats, one span each under root, the layer calls op o
	// made, with the same inputs and options.
	replay(t *tracer, root, opID int, o outcome) error
	// verify recomputes o through the in-RAM library path and fails
	// unless the statistics are bit-identical.
	verify(o outcome) error
	// layers derives the workload's own per-layer metrics from the ops
	// of the traced window.
	layers(ops []outcome) (map[string]float64, error)
	// inputDigest hashes the input of op (c, i).
	inputDigest(c, i int) [32]byte
	// cycle is the period of the ops' input mix: a window runs whole
	// cycles, so its ops cost the same mix wherever the clock stops.
	cycle() int
}

// outcome is what one op returned.
type outcome struct {
	c, i    int
	start   time.Time
	latency time.Duration
	err     error
	stats   core.Statistics

	cached   bool    // service: served from the result cache
	execMs   float64 // service: the envelope's elapsedMs
	poolPeak int64   // fft.PeakBytes over the op

	results []compress.Result // measure-sweep
	reads   readCounts        // stream-3d, traced ops only
}

// opRand is the generator behind op (c, i) of a run seeded with root.
func opRand(root uint64, c, i int) *xrand.Rand {
	return xrand.New(root ^ uint64(c)<<40 ^ uint64(i))
}

// rootSeed spreads the command-line seed so nearby seeds share no input.
func rootSeed(seed uint64) uint64 { return xrand.New(seed).Uint64() }

// baseFields draws the eight unit-variance Gaussian fields every
// analyze-cold and vfft-cache input is a combination of: one pair per
// correlation range 2, 4, 8 and 16.
func baseFields(root uint64, edge int) ([][]float64, error) {
	var out [][]float64
	for k, rang := range []float64{2, 4, 8, 16} {
		s, err := gaussian.NewSampler(gaussian.Params{Rows: edge, Cols: edge, Range: rang})
		if err != nil {
			return nil, err
		}
		a, b, err := s.SamplePair(xrand.New(root + uint64(k)))
		if err != nil {
			return nil, err
		}
		out = append(out, a.Data, b.Data)
	}
	return out, nil
}

// combine returns a unit-variance linear combination of the base fields
// with weights drawn from rng: a new field with several correlation
// ranges, at the cost of a few multiply-adds per element.
func combine(base [][]float64, edge int, rng *xrand.Rand) *field.Field {
	w := make([]float64, len(base))
	var norm float64
	for k := range w {
		w[k] = rng.NormFloat64()
		norm += w[k] * w[k]
	}
	f := field.New(edge, edge)
	for k, b := range base {
		wk := w[k] / math.Sqrt(norm)
		for j, v := range b {
			f.Data[j] += wk * v
		}
	}
	return f
}

// encode64 and encode32 serialize a field on its lane, in the wire
// format corrcompd accepts.
func encode64(f *field.Field) []byte {
	var buf bytes.Buffer
	_ = f.WriteBinary(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

func encode32(f *field.Field32) []byte {
	var buf bytes.Buffer
	_ = f.WriteBinary(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

func digest64(f *field.Field) [32]byte { return sha256.Sum256(encode64(f)) }

// ---- the library calls the replays and checks share with core -------

// selectedKernels resolves the kernels an analysis with o runs, in the
// registry order core runs them.
func selectedKernels(o core.AnalysisOptions) []stat.Kernel {
	var out []stat.Kernel
	for _, k := range stat.Kernels() {
		if len(o.Stats) > 0 && !slices.Contains(o.Stats, k.Name()) {
			continue
		}
		if o.SkipLocal && k.Caps().Windowed {
			continue
		}
		out = append(out, k)
	}
	return out
}

// statRequest builds the engine request core builds from o, so a replay
// of one kernel does exactly the work that kernel did inside the op.
func statRequest(o core.AnalysisOptions) stat.Request {
	if o.Window == 0 {
		o.Window = core.DefaultWindow
	}
	if o.VarianceFraction == 0 {
		o.VarianceFraction = svdstat.DefaultVarianceFraction
	}
	v := o.VariogramOpts
	if v.Workers == 0 {
		v.Workers = o.Workers
	}
	if o.VariogramFFT {
		v.FFT = true
	}
	return stat.Request{
		Window:  o.Window,
		Workers: o.Workers,
		Opt: map[string]any{
			"variogram":  v,
			"localrange": v,
			"svd":        svdstat.Options{Frac: o.VarianceFraction, Workers: o.Workers, Gram: o.SVDGram},
		},
	}
}

// runKernel runs one kernel alone over src.
func runKernel(src stat.Source, k stat.Kernel, o core.AnalysisOptions) error {
	_, err := stat.Run(context.Background(), src, []stat.Kernel{k}, statRequest(o))
	return err
}

// checkStats fails unless every key is present and finite.
func checkStats(s core.Statistics, keys []string) error {
	for _, k := range keys {
		v, ok := s[k]
		if !ok {
			return fmt.Errorf("statistic %s missing", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("statistic %s = %v", k, v)
		}
	}
	return nil
}

func outputKeys(ks []stat.Kernel) []string {
	var out []string
	for _, k := range ks {
		out = append(out, k.Outputs()...)
	}
	return out
}
