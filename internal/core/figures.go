package core

import (
	"context"
	"fmt"
	"io"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/stat"
	"lossycorr/internal/variogram"
	"lossycorr/internal/xrand"
)

// FigureConfig scales the figure-regeneration experiments. The paper
// uses 1028×1028 fields; the default 256 keeps the full pipeline
// laptop-scale while preserving every qualitative trend (ranges are
// scaled proportionally to the field edge).
type FigureConfig struct {
	Size          int       // field edge; 0 means 256
	Replicates    int       // fields per range; 0 means 2
	MirandaSlices int       // hydro snapshots; 0 means 6
	Seed          uint64    // experiment seed
	Workers       int       // measurement parallelism; 0 means GOMAXPROCS
	ErrorBounds   []float64 // nil means the paper's four bounds
}

func (c FigureConfig) withDefaults() FigureConfig {
	if c.Size == 0 {
		c.Size = 256
	}
	if c.Replicates == 0 {
		c.Replicates = 2
	}
	if c.MirandaSlices == 0 {
		c.MirandaSlices = 6
	}
	if c.ErrorBounds == nil {
		c.ErrorBounds = compress.PaperErrorBounds
	}
	return c
}

// scaledRanges rescales the reference sweeps to the configured size.
func (c FigureConfig) scaledRanges() []float64 {
	k := float64(c.Size) / 256
	out := make([]float64, len(PaperRanges))
	for i, r := range PaperRanges {
		out[i] = r * k
	}
	return out
}

func (c FigureConfig) scaledPairs() [][2]float64 {
	k := float64(c.Size) / 256
	out := make([][2]float64, len(PaperRangePairs))
	for i, p := range PaperRangePairs {
		out[i] = [2]float64{p[0] * k, p[1] * k}
	}
	return out
}

// Suite runs and caches the figure experiments so that figures sharing
// a dataset (3/5/6 on the Gaussian sets, 4/7 on the hydro set) measure
// it only once.
type Suite struct {
	cfg       FigureConfig
	singleMS  []Measurement
	multiMS   []Measurement
	mirandaMS []Measurement
	reg       *compress.Registry
}

// NewSuite prepares a lazy suite with the given configuration.
func NewSuite(cfg FigureConfig) *Suite {
	return &Suite{cfg: cfg.withDefaults(), reg: DefaultRegistry()}
}

func (s *Suite) measureOpts() MeasureOptions {
	return MeasureOptions{
		ErrorBounds: s.cfg.ErrorBounds,
		Workers:     s.cfg.Workers,
	}
}

// measure analyzes and compresses every field of a 2D dataset.
func (s *Suite) measure(ds *Dataset) ([]Measurement, error) {
	return MeasureFieldSetCtx(context.Background(), ds.Name, ds.Fields, ds.Labels, s.reg, s.measureOpts())
}

// SingleRangeMeasurements measures (once) the single-range dataset.
func (s *Suite) SingleRangeMeasurements() ([]Measurement, error) {
	if s.singleMS != nil {
		return s.singleMS, nil
	}
	ds, err := GenerateSingleRange(SingleRangeConfig{
		Rows: s.cfg.Size, Cols: s.cfg.Size,
		Ranges:     s.cfg.scaledRanges(),
		Replicates: s.cfg.Replicates,
		Seed:       s.cfg.Seed + 1,
		Workers:    s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	s.singleMS, err = s.measure(ds)
	return s.singleMS, err
}

// MultiRangeMeasurements measures (once) the multi-range dataset.
func (s *Suite) MultiRangeMeasurements() ([]Measurement, error) {
	if s.multiMS != nil {
		return s.multiMS, nil
	}
	ds, err := GenerateMultiRange(MultiRangeConfig{
		Rows: s.cfg.Size, Cols: s.cfg.Size,
		RangePairs: s.cfg.scaledPairs(),
		Replicates: s.cfg.Replicates,
		Seed:       s.cfg.Seed + 2,
		Workers:    s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	s.multiMS, err = s.measure(ds)
	return s.multiMS, err
}

// MirandaMeasurements measures (once) the Miranda-substitute dataset.
func (s *Suite) MirandaMeasurements() ([]Measurement, error) {
	if s.mirandaMS != nil {
		return s.mirandaMS, nil
	}
	// Like the paper — where Miranda slices (384²) are smaller than the
	// Gaussian fields (1028²) — the hydro set runs at half the Gaussian
	// edge, which also lets the instability develop (t→3) at tractable
	// cost.
	ds, err := GenerateMiranda(MirandaConfig{
		Size:    s.cfg.Size / 2,
		Slices:  s.cfg.MirandaSlices,
		TEnd:    3.0,
		Seed:    s.cfg.Seed + 3,
		Workers: s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	s.mirandaMS, err = s.measure(ds)
	return s.mirandaMS, err
}

// Figure1 writes the illustrative variogram of Figure 1: the empirical
// semi-variogram of one single-range field next to the fitted and true
// squared-exponential curves, annotated with nugget/sill/range.
func (s *Suite) Figure1(w io.Writer) error {
	trueRange := float64(s.cfg.Size) / 16
	f, err := gaussian.Generate(gaussian.Params{
		Rows: s.cfg.Size, Cols: s.cfg.Size, Range: trueRange, Seed: s.cfg.Seed + 11,
	})
	if err != nil {
		return err
	}
	emp, err := variogram.Compute(context.Background(), stat.SourceOf(f), variogram.Options{Seed: s.cfg.Seed})
	if err != nil {
		return err
	}
	model, err := variogram.Fit(emp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== fig1: variogram as a function of distance h ==\n")
	fmt.Fprintf(w, "true range=%.2f  fitted range=%.4f  sill=%.4f  nugget=0 (model)\n",
		trueRange, model.Range, model.Sill)
	fmt.Fprintf(w, "%8s %14s %14s %14s\n", "h", "empirical", "fitted", "theoretical")
	for i, h := range emp.H {
		fmt.Fprintf(w, "%8.1f %14.6f %14.6f %14.6f\n",
			h, emp.Gamma[i], model.Gamma(h), gaussian.TheoreticalVariogram(h, trueRange, 1))
	}
	return nil
}

// Figure2 writes summary statistics (and optional PGM images) of
// example fields from each dataset — the textual stand-in for the
// paper's Figure 2 gallery.
func (s *Suite) Figure2(w io.Writer, pgmSink func(name string) (io.WriteCloser, error)) error {
	fmt.Fprintf(w, "== fig2: original images (summary statistics) ==\n")
	emit := func(name string, g *field.Field) error {
		st := g.Summary()
		fmt.Fprintf(w, "%-24s %4dx%-4d min=%9.4f max=%9.4f mean=%9.4f var=%9.4f\n",
			name, g.Shape[0], g.Shape[1], st.Min, st.Max, st.Mean, st.Variance)
		if pgmSink == nil {
			return nil
		}
		wc, err := pgmSink(name + ".pgm")
		if err != nil {
			return err
		}
		if err := g.WritePGM(wc); err != nil {
			wc.Close()
			return err
		}
		return wc.Close()
	}
	rng := xrand.New(s.cfg.Seed + 21)
	for _, a := range []float64{4, 16, 48} {
		a = a * float64(s.cfg.Size) / 256
		f, err := gaussian.Generate(gaussian.Params{
			Rows: s.cfg.Size, Cols: s.cfg.Size, Range: a, Seed: rng.Uint64(),
		})
		if err != nil {
			return err
		}
		if err := emit(fmt.Sprintf("gaussian-range-%.0f", a), f); err != nil {
			return err
		}
	}
	mds, err := GenerateMiranda(MirandaConfig{Size: s.cfg.Size / 2, Slices: 2, Seed: s.cfg.Seed + 22})
	if err != nil {
		return err
	}
	for i, f := range mds.Fields {
		if err := emit(fmt.Sprintf("miranda-velocityx-t%.2f", mds.Labels[i]), f); err != nil {
			return err
		}
	}
	return nil
}

// gaussianFigure builds a figure against one statistic from the two
// Gaussian datasets: the single-range panels, then the multi-range
// ones, one per compressor, leaving out the compressor named skip.
func (s *Suite) gaussianFigure(id, title string, sel StatSelector, skip string) (*Figure, error) {
	single, err := s.SingleRangeMeasurements()
	if err != nil {
		return nil, err
	}
	multi, err := s.MultiRangeMeasurements()
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title}
	for _, set := range []struct {
		prefix string
		ms     []Measurement
	}{{"single-range / ", single}, {"multi-range / ", multi}} {
		for _, p := range PanelsByCompressor(set.ms, sel, -1) {
			if p.Title == skip {
				continue
			}
			p.Title = set.prefix + p.Title
			fig.Panels = append(fig.Panels, p)
		}
	}
	return fig, nil
}

// Figure3 regenerates "compression ratios against estimated variogram
// range" for the single-range (left) and multi-range (right) Gaussian
// datasets, one panel per compressor per dataset.
func (s *Suite) Figure3() (*Figure, error) {
	return s.gaussianFigure("fig3", "CR vs estimated global variogram range (Gaussian fields)", XGlobalRange, "")
}

// Figure4 regenerates the Miranda panels of CR vs global variogram
// range, including the paper's reduced panel restricted to error bounds
// strictly below 1e-2 for the SZ-like compressor.
func (s *Suite) Figure4() (*Figure, error) {
	ms, err := s.MirandaMeasurements()
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig4", Title: "CR vs estimated global variogram range (Miranda velocityx)"}
	fig.Panels = append(fig.Panels, PanelsByCompressor(ms, XGlobalRange, -1)...)
	for _, p := range PanelsByCompressor(ms, XGlobalRange, 1e-2) {
		if p.Title == "sz-like" {
			p.Title = "sz-like (eb < 1e-2)"
			fig.Panels = append(fig.Panels, p)
		}
	}
	return fig, nil
}

// Figure5 regenerates CR vs std of local variogram ranges for the two
// Gaussian datasets.
func (s *Suite) Figure5() (*Figure, error) {
	return s.gaussianFigure("fig5", "CR vs std of local variogram range (Gaussian fields)", XLocalRangeStd, "")
}

// Figure6 regenerates CR vs std of local SVD truncation level for the
// Gaussian datasets. The paper omits MGARD here; so do we.
func (s *Suite) Figure6() (*Figure, error) {
	return s.gaussianFigure("fig6", "CR vs std of local SVD truncation level (Gaussian fields)", XLocalSVDStd, "mgard-like")
}

// Figure7 regenerates the Miranda panels against both local statistics
// (std of local variogram ranges, std of local SVD truncation levels),
// with the SZ panels also shown restricted to eb < 1e-2.
func (s *Suite) Figure7() (*Figure, error) {
	ms, err := s.MirandaMeasurements()
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig7", Title: "CR vs local statistics (Miranda velocityx)"}
	for _, sel := range []StatSelector{XLocalRangeStd, XLocalSVDStd} {
		for _, p := range PanelsByCompressor(ms, sel, -1) {
			if p.Title == "mgard-like" {
				continue // paper shows SZ and ZFP for the local statistics
			}
			fig.Panels = append(fig.Panels, p)
		}
		for _, p := range PanelsByCompressor(ms, sel, 1e-2) {
			if p.Title == "sz-like" {
				p.Title = "sz-like (eb < 1e-2)"
				fig.Panels = append(fig.Panels, p)
			}
		}
	}
	return fig, nil
}

// Figure regenerates figure n (3–7) as structured data.
func (s *Suite) Figure(n int) (*Figure, error) {
	switch n {
	case 3:
		return s.Figure3()
	case 4:
		return s.Figure4()
	case 5:
		return s.Figure5()
	case 6:
		return s.Figure6()
	case 7:
		return s.Figure7()
	default:
		return nil, fmt.Errorf("core: figure %d has no structured form (1 and 2 are textual; see Figure1/Figure2)", n)
	}
}
