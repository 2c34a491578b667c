package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/regression"
)

// Predictor estimates compression ratios for unseen fields from their
// correlation statistics, using the logarithmic regressions fitted on a
// training set of measurements — the forward application the paper's
// introduction motivates ("anticipate compression performance and adapt
// compressors to correlation structures"). Alongside the fits it keeps
// per-model cross-validation diagnostics and training provenance, both
// of which travel with the model through SavePredictor/LoadPredictor.
type Predictor struct {
	sel  StatSelector
	fits map[predKey]regression.LogFit
	cv   map[predKey]regression.CVStats
	prov ModelProvenance
}

type predKey struct {
	comp string
	eb   float64
}

// TrainOptions tunes Train.
type TrainOptions struct {
	// Folds is the cross-validation fold count; 0 means 5 (clamped to
	// each series' usable point count), negative disables CV entirely.
	Folds int
	// Seed drives the deterministic fold assignment; 0 means 1. The
	// assignment depends only on (series length, folds, seed), so CV
	// diagnostics are bit-identical at any worker count.
	Seed uint64
}

// TrainPredictor is Train with the zero TrainOptions. It stays only
// because the benchmark module calls it.
func TrainPredictor(ms []Measurement, sel StatSelector) (*Predictor, error) {
	return Train(ms, sel, TrainOptions{})
}

// Train fits one log-regression per (compressor, error bound) group
// present in the measurements, against the selected statistic, with
// k-fold cross-validation diagnostics per model. Groups whose fit
// fails (e.g. all-identical x) are skipped. Series too small to
// cross-validate (< 3 usable points) keep their fit but carry no CV
// diagnostics.
func Train(ms []Measurement, sel StatSelector, opts TrainOptions) (*Predictor, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	series := BuildSeries(ms, sel, YRatio)
	p := &Predictor{sel: sel,
		fits: make(map[predKey]regression.LogFit),
		cv:   make(map[predKey]regression.CVStats)}
	for _, s := range series {
		if !s.FitOK {
			continue
		}
		k := predKey{s.Compressor, s.ErrorBound}
		p.fits[k] = s.Fit
		if opts.Folds >= 0 {
			if cv, err := regression.CrossValidateLog(s.X, s.Y, opts.Folds, opts.Seed); err == nil {
				p.cv[k] = cv
			}
		}
	}
	if len(p.fits) == 0 {
		return nil, fmt.Errorf("core: no fittable series in %d measurements", len(ms))
	}
	p.prov = ModelProvenance{Source: "train", Measurements: len(ms)}
	return p, nil
}

// The default training recipe, shared by corrcomp predict and
// corrcompd's lazily trained models: DefaultTrainFields rungs of the
// range ladder, on fields DefaultTrainEdge2D on a side at rank 2 and
// DefaultTrainEdge3D at rank 3.
const (
	DefaultTrainFields = 6
	DefaultTrainEdge2D = 128
	DefaultTrainEdge3D = 24
)

// TrainConfig describes a synthetic training set: Gaussian fields of
// one rank on a ladder of correlation ranges, measured at one error
// bound.
type TrainConfig struct {
	Rank       int     // 2 or 3
	Fields     int     // rungs of the range ladder, one field each
	Edge       int     // extent of every axis; 0 means DefaultTrainEdge2D or DefaultTrainEdge3D
	Seed       uint64  // field i draws with Seed+i; also the CV fold seed
	ErrorBound float64 // the one bound every codec is measured at
	Folds      int     // as TrainOptions.Folds
	Workers    int
}

// TrainRangeLadder generates cfg's training fields, measures every
// registered codec on them at the error bound, and trains a Predictor
// on the global range, with its provenance set. Field i has range
// edge/64·2<<(i%6) in 2D and edge/16·1<<(i%3) in 3D. It also returns
// the training fields.
func TrainRangeLadder(ctx context.Context, cfg TrainConfig) (*Predictor, []*field.Field, error) {
	if cfg.Rank != 2 && cfg.Rank != 3 {
		return nil, nil, fmt.Errorf("core: training rank must be 2 or 3, got %d", cfg.Rank)
	}
	if cfg.Edge == 0 {
		cfg.Edge = DefaultTrainEdge2D
		if cfg.Rank == 3 {
			cfg.Edge = DefaultTrainEdge3D
		}
	}
	fields := make([]*field.Field, 0, cfg.Fields)
	labels := make([]float64, 0, cfg.Fields)
	for i := 0; i < cfg.Fields; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var f *field.Field
		var rang float64
		var err error
		if cfg.Rank == 2 {
			rang = float64(cfg.Edge) / 64 * float64(int(2)<<uint(i%6))
			f, err = gaussian.Generate(gaussian.Params{
				Rows: cfg.Edge, Cols: cfg.Edge, Range: rang, Seed: cfg.Seed + uint64(i),
			})
		} else {
			rang = float64(cfg.Edge) / 16 * float64(int(1)<<uint(i%3))
			f, err = gaussian.Generate3D(gaussian.Params3D{
				Nz: cfg.Edge, Ny: cfg.Edge, Nx: cfg.Edge, Range: rang, Seed: cfg.Seed + uint64(i),
			})
		}
		if err != nil {
			return nil, nil, err
		}
		fields = append(fields, f)
		labels = append(labels, rang)
	}
	ms, err := MeasureFieldSetCtx(ctx, "train", fields, labels, DefaultRegistry(), MeasureOptions{
		Analysis:    AnalysisOptions{SkipLocal: true},
		ErrorBounds: []float64{cfg.ErrorBound},
		Workers:     cfg.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	p, err := Train(ms, XGlobalRange, TrainOptions{Folds: cfg.Folds, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	p.SetProvenance(ModelProvenance{
		Source: "train", Rank: cfg.Rank, TrainFields: cfg.Fields, TrainEdge: cfg.Edge,
		Seed: cfg.Seed, Measurements: len(ms),
	})
	return p, fields, nil
}

// Models lists the trained (compressor, error bound) pairs in
// deterministic order. Bounds are rendered with %g so nearby trained
// bounds (1e-3 vs 1.4e-3) stay distinguishable — %.0e used to collapse
// them into one display string.
func (p *Predictor) Models() []string {
	out := make([]string, 0, len(p.fits))
	for k := range p.fits {
		out = append(out, fmt.Sprintf("%s@%g", k.comp, k.eb))
	}
	sort.Strings(out)
	return out
}

// Selector reports the statistic the predictor regresses on.
func (p *Predictor) Selector() StatSelector { return p.sel }

// CV returns the cross-validation diagnostics of one trained model,
// when the training run computed them.
func (p *Predictor) CV(compressor string, eb float64) (regression.CVStats, bool) {
	cv, ok := p.cv[predKey{compressor, eb}]
	return cv, ok
}

// Fit returns the fitted log model for one (compressor, bound) pair.
func (p *Predictor) Fit(compressor string, eb float64) (regression.LogFit, bool) {
	fit, ok := p.fits[predKey{compressor, eb}]
	return fit, ok
}

// Provenance reports how the predictor was trained.
func (p *Predictor) Provenance() ModelProvenance { return p.prov }

// SetProvenance records how the predictor was trained, for persistence.
func (p *Predictor) SetProvenance(prov ModelProvenance) { p.prov = prov }

// ErrorBounds lists the distinct trained error bounds in ascending
// order.
func (p *Predictor) ErrorBounds() []float64 {
	seen := make(map[float64]bool)
	var out []float64
	for k := range p.fits {
		if !seen[k.eb] {
			seen[k.eb] = true
			out = append(out, k.eb)
		}
	}
	sort.Float64s(out)
	return out
}

// PredictRatio estimates the CR for a compressor and bound given a
// field's statistics.
func (p *Predictor) PredictRatio(compressor string, eb float64, stats Statistics) (float64, error) {
	fit, ok := p.fits[predKey{compressor, eb}]
	if !ok {
		return 0, fmt.Errorf("core: no model for %s at eb=%g", compressor, eb)
	}
	x := p.sel.Value(stats)
	if x <= 0 {
		return 0, fmt.Errorf("core: statistic %v non-positive (%g), log model undefined", p.sel, x)
	}
	return fit.Predict(x), nil
}

// DefaultIntervalLevel is the confidence level of prediction intervals
// when the caller passes 0.
const DefaultIntervalLevel = 0.95

// Prediction is a point CR estimate with its t-based prediction
// interval [Lo, Hi] at the given confidence level.
type Prediction struct {
	Ratio float64 `json:"ratio"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

// PredictRatioInterval is PredictRatio with uncertainty: the point
// estimate plus the two-sided prediction interval of the underlying log
// fit (t-quantile × residual dispersion at the queried x). level 0
// selects DefaultIntervalLevel. Models fitted on too few points for a
// residual dispersion collapse to [Ratio, Ratio].
func (p *Predictor) PredictRatioInterval(compressor string, eb float64, stats Statistics, level float64) (Prediction, error) {
	fit, ok := p.fits[predKey{compressor, eb}]
	if !ok {
		return Prediction{}, fmt.Errorf("core: no model for %s at eb=%g", compressor, eb)
	}
	x := p.sel.Value(stats)
	if x <= 0 {
		return Prediction{}, fmt.Errorf("core: statistic %v non-positive (%g), log model undefined", p.sel, x)
	}
	if level == 0 {
		level = DefaultIntervalLevel
	}
	y, lo, hi := fit.PredictInterval(x, level)
	return Prediction{Ratio: y, Lo: lo, Hi: hi, Level: level}, nil
}

// Selection is the outcome of compressor selection.
type Selection struct {
	Compressor string
	Predicted  float64
}

// SelectCompressor returns the compressor with the highest predicted CR
// at the given bound — the automated SZ-vs-ZFP switching idea of Tao et
// al. (TPDS 2019) driven by correlation statistics instead of
// compressor internals.
func (p *Predictor) SelectCompressor(eb float64, stats Statistics) (Selection, error) {
	// The statistic does not depend on the candidate model, so it is
	// checked once up front: a non-positive statistic used to fall
	// through the per-model `continue` and get misreported as "no
	// models at eb", masking the real cause from the caller.
	anyAtEB := false
	for k := range p.fits {
		if k.eb == eb {
			anyAtEB = true
			break
		}
	}
	if !anyAtEB {
		return Selection{}, fmt.Errorf("core: no models at eb=%g", eb)
	}
	x := p.sel.Value(stats)
	if x <= 0 {
		return Selection{}, fmt.Errorf("core: statistic %v non-positive (%g), log model undefined", p.sel, x)
	}
	best := Selection{Predicted: math.Inf(-1)}
	for k, fit := range p.fits {
		if k.eb != eb {
			continue
		}
		cr := fit.Predict(x)
		if cr > best.Predicted || (cr == best.Predicted && k.comp < best.Compressor) {
			best = Selection{Compressor: k.comp, Predicted: cr}
		}
	}
	return best, nil
}
