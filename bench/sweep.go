package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/xrand"
)

// sweepLoad is the paper's Fig. 3 pipeline through the library: each op
// measures one field of a seeded range ladder with every rank-2 codec at
// every paper error bound.
type sweepLoad struct {
	// fields holds realizations of the range ladder one after another;
	// op i measures fields[i%len(fields)], so every run of ladder
	// consecutive ops covers each range once.
	fields []*field.Field
	labels []float64 // the generating correlation range of each field
	ladder int
	opts   core.MeasureOptions
	reg    *compress.Registry
	codecs []compress.FieldCompressor
}

// trainRepeats is how many times the traced run times TrainPredictor.
const trainRepeats = 5

func prepareMeasureSweep(seed uint64, sz sizes, _ int) (load, error) {
	rng := xrand.New(rootSeed(seed))
	l := &sweepLoad{opts: core.MeasureOptions{
		Analysis:    core.AnalysisOptions{SkipLocal: true},
		ErrorBounds: compress.PaperErrorBounds,
		Workers:     runtime.GOMAXPROCS(0),
	}}
	for r := 0; r < sz.ladderReps; r++ {
		for k := 0; k < sz.ladder; k++ {
			// Ranges 2..32, evenly spaced in ln(range) — the paper's x axis.
			rang := 2 * math.Pow(16, float64(k)/float64(max(sz.ladder-1, 1)))
			g, err := gaussian.Generate(gaussian.Params{Rows: sz.sweepEdge, Cols: sz.sweepEdge, Range: rang, Seed: rng.Uint64()})
			if err != nil {
				return nil, err
			}
			l.fields = append(l.fields, field.FromGrid(g))
			l.labels = append(l.labels, rang)
		}
	}
	l.ladder = sz.ladder
	return l, nil
}

func (l *sweepLoad) setUp() error {
	l.reg = core.DefaultRegistry()
	l.codecs = l.reg.AllFor(2)
	return l.op(1, 0, false).err
}

func (l *sweepLoad) tearDown() {}

// analysis is the analysis core runs inside a measurement.
func (l *sweepLoad) analysis() core.AnalysisOptions {
	a := l.opts.Analysis
	a.Workers = l.opts.Workers
	return a
}

func (l *sweepLoad) op(c, i int, _ bool) outcome {
	o := outcome{c: c, i: i}
	k := i % len(l.fields)
	f := []*field.Field{l.fields[k]}
	label := []float64{l.labels[k]}
	fft.ResetPeakBytes()
	o.start = time.Now()
	ms, err := core.MeasureFieldSetCtx(context.Background(), "measure-sweep", f, label, l.reg, l.opts)
	o.latency = time.Since(o.start)
	o.poolPeak = fft.PeakBytes()
	if err != nil {
		o.err = err
		return o
	}
	o.stats, o.results = ms[0].Stats, ms[0].Results
	o.err = l.check(o)
	return o
}

// check fails unless the op measured every codec at every bound, each
// within its bound and compressing.
func (l *sweepLoad) check(o outcome) error {
	if err := checkStats(o.stats, outputKeys(selectedKernels(l.opts.Analysis))); err != nil {
		return err
	}
	if want := len(l.codecs) * len(l.opts.ErrorBounds); len(o.results) != want {
		return fmt.Errorf("%d results, want %d", len(o.results), want)
	}
	for _, r := range o.results {
		if !r.BoundOK || !(r.Ratio > 1) {
			return fmt.Errorf("%s at %g: boundOK=%t ratio=%g", r.Compressor, r.ErrorBound, r.BoundOK, r.Ratio)
		}
	}
	return nil
}

func (l *sweepLoad) replay(t *tracer, root, opID int, o outcome) error {
	f := l.fields[o.i%len(l.fields)]
	src := stat.Source{F64: f}
	for _, k := range selectedKernels(l.opts.Analysis) {
		if err := t.do(root, opID, "stat."+k.Name(), func() error {
			return runKernel(src, k, l.analysis())
		}); err != nil {
			return err
		}
	}
	for _, c := range l.codecs {
		prefix := "compress." + c.Name()
		for _, eb := range l.opts.ErrorBounds {
			var data []byte
			var dec *field.Field
			err := t.do(root, opID, prefix+".compress", func() (err error) {
				data, err = c.CompressField(f, eb)
				return err
			})
			if err == nil {
				err = t.do(root, opID, prefix+".decompress", func() (err error) {
					dec, err = c.DecompressField(data)
					return err
				})
			}
			if err == nil {
				err = t.do(root, opID, "field.diff", func() error {
					if _, err := f.MaxAbsDiff(dec); err != nil {
						return err
					}
					_, err := f.MSE(dec)
					return err
				})
			}
			if err != nil {
				return fmt.Errorf("%s at %g: %w", c.Name(), eb, err)
			}
		}
	}
	return nil
}

func (l *sweepLoad) verify(o outcome) error {
	f := l.fields[o.i%len(l.fields)]
	want, err := core.AnalyzeFieldCtx(context.Background(), f, l.analysis())
	if err != nil {
		return err
	}
	if !want.Equal(o.stats) {
		return fmt.Errorf("op %d: measurement has %v, in-RAM analysis gives %v", o.i, o.stats, want)
	}
	var results []compress.Result
	for _, c := range l.codecs {
		for _, eb := range l.opts.ErrorBounds {
			r, err := compress.RunField(c, f, eb)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	if !reflect.DeepEqual(results, o.results) {
		return fmt.Errorf("op %d: codec results differ from a fresh run", o.i)
	}
	return nil
}

// layers reports each codec's ratio, and fits the paper's log model on
// the first pass over the ladder: fit_r2 is the mean R² of the
// α+β·ln(global range) fits per (codec, bound), cr_geomean the geometric
// mean ratio of that pass.
func (l *sweepLoad) layers(ops []outcome) (map[string]float64, error) {
	m := make(map[string]float64)
	ratios := make(map[string][]float64) // codec -> per-op geomean over bounds
	first := make(map[int]core.Measurement)
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		per := make(map[string][]float64)
		for _, r := range o.results {
			per[r.Compressor] = append(per[r.Compressor], r.Ratio)
		}
		for name, rs := range per {
			ratios[name] = append(ratios[name], geomean(rs))
		}
		k := o.i % len(l.fields)
		if _, seen := first[k]; !seen && k < l.ladder {
			first[k] = core.Measurement{Dataset: "measure-sweep", Index: k, Label: l.labels[k], Stats: o.stats, Results: o.results}
		}
	}
	for name, rs := range ratios {
		m["compress."+name+".ratio"] = median(rs)
	}
	pass := make([]core.Measurement, 0, len(first))
	for _, ms := range first {
		pass = append(pass, ms)
	}
	sort.Slice(pass, func(a, b int) bool { return pass[a].Index < pass[b].Index })
	if len(pass) < 3 {
		return m, nil // too few fields for a fit
	}
	var all []float64
	for _, ms := range pass {
		for _, r := range ms.Results {
			all = append(all, r.Ratio)
		}
	}
	m["compress.cr_geomean"] = geomean(all)

	var pred *core.Predictor
	var trains []float64
	for k := 0; k < trainRepeats; k++ {
		st := time.Now()
		p, err := core.TrainPredictor(pass, core.XGlobalRange)
		trains = append(trains, float64(time.Since(st))/1e6)
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		pred = p
	}
	m["core.train_ms"] = median(trains)

	var r2, preds []float64
	for _, c := range l.codecs {
		for _, eb := range l.opts.ErrorBounds {
			fit, ok := pred.Fit(c.Name(), eb)
			if !ok {
				return nil, fmt.Errorf("no fit for %s at %g", c.Name(), eb)
			}
			r2 = append(r2, fit.R2)
			for _, ms := range pass {
				st := time.Now()
				_, err := pred.PredictRatioInterval(c.Name(), eb, ms.Stats, 0)
				preds = append(preds, float64(time.Since(st))/1e3)
				if err != nil {
					return nil, fmt.Errorf("predict: %w", err)
				}
			}
		}
	}
	var sum float64
	for _, v := range r2 {
		sum += v
	}
	m["regression.fit_r2"] = sum / float64(len(r2))
	m["core.predict_us"] = median(preds)
	return m, nil
}

func (l *sweepLoad) cycle() int { return l.ladder }

func (l *sweepLoad) inputDigest(_, i int) [32]byte {
	return digest64(l.fields[i%len(l.fields)])
}
