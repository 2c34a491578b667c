package core

import (
	"fmt"
	"io"
	"sort"

	"lossycorr/internal/regression"
)

// StatSelector picks the x-axis statistic of a figure.
type StatSelector int

const (
	// XGlobalRange plots against the estimated global variogram range
	// (Figures 3 and 4).
	XGlobalRange StatSelector = iota
	// XLocalRangeStd plots against the std of local variogram ranges
	// (Figure 5 and Figure 7 left).
	XLocalRangeStd
	// XLocalSVDStd plots against the std of local SVD truncation levels
	// (Figure 6 and Figure 7 right).
	XLocalSVDStd
)

// String names the selector as the paper's axis labels do.
func (s StatSelector) String() string {
	switch s {
	case XGlobalRange:
		return "Estimated global variogram range"
	case XLocalRangeStd:
		return fmt.Sprintf("Std estimated of local variogram range (H=%d)", DefaultWindow)
	case XLocalSVDStd:
		return fmt.Sprintf("Std of truncation level of local SVD (H=%d)", DefaultWindow)
	default:
		return "unknown statistic"
	}
}

// StatKey is the Statistics map key of the selected statistic (Key is
// the selector's persistence name — a different namespace).
func (s StatSelector) StatKey() string {
	switch s {
	case XGlobalRange:
		return StatGlobalRange
	case XLocalRangeStd:
		return StatLocalRangeStd
	default:
		return StatLocalSVDStd
	}
}

// Value extracts the selected statistic.
func (s StatSelector) Value(st Statistics) float64 {
	return st[s.StatKey()]
}

// WithValue returns a Statistics carrying x as the selected statistic —
// the inverse of Value, for callers holding the statistic alone (e.g.
// corrcompd's stats-only predict path, where the client sends a cached
// statistic instead of a field).
func (s StatSelector) WithValue(x float64) Statistics {
	return Statistics{s.StatKey(): x}
}

// Metric selects the y quantity of a series.
type Metric int

const (
	// YRatio plots compression ratios (the paper's evaluation).
	YRatio Metric = iota
	// YPSNR plots reconstruction PSNR in dB (the paper's future-work
	// quality metric).
	YPSNR
)

// String names the metric.
func (m Metric) String() string {
	if m == YPSNR {
		return "PSNR (dB)"
	}
	return "Compression ratio"
}

// Series is one curve of a figure panel: a compression metric of one
// compressor at one error bound against one statistic, plus the fitted
// logarithmic regression y = α + β·log(x).
type Series struct {
	Compressor string
	ErrorBound float64
	X, Y       []float64
	Fit        regression.LogFit
	FitOK      bool
}

// Panel is one subplot: all series of one compressor (or dataset
// pairing) against one x statistic.
type Panel struct {
	Title  string
	XLabel string
	Series []Series
}

// Figure is an ordered set of panels with the paper's figure number.
type Figure struct {
	ID     string // "fig3", ...
	Title  string
	Panels []Panel
}

// BuildSeries groups measurements by (compressor, error bound) and
// fits the paper's logarithmic regression per group, with metric (the
// compression ratio, or PSNR) on the y axis.
func BuildSeries(ms []Measurement, sel StatSelector, metric Metric) []Series {
	type key struct {
		comp string
		eb   float64
	}
	groups := make(map[key]*Series)
	var order []key
	for _, m := range ms {
		x := sel.Value(m.Stats)
		for _, r := range m.Results {
			k := key{r.Compressor, r.ErrorBound}
			s, ok := groups[k]
			if !ok {
				s = &Series{Compressor: r.Compressor, ErrorBound: r.ErrorBound}
				groups[k] = s
				order = append(order, k)
			}
			s.X = append(s.X, x)
			y := r.Ratio
			if metric == YPSNR {
				y = r.PSNR
			}
			s.Y = append(s.Y, y)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].comp != order[j].comp {
			return order[i].comp < order[j].comp
		}
		return order[i].eb < order[j].eb
	})
	out := make([]Series, 0, len(order))
	for _, k := range order {
		s := groups[k]
		if fit, err := regression.FitLog(s.X, s.Y); err == nil {
			s.Fit = fit
			s.FitOK = true
		}
		out = append(out, *s)
	}
	return out
}

// PanelsByCompressor splits series into one panel per compressor, the
// layout of the paper's figures (SZ panel, ZFP panel, MGARD panel).
// maxEB < 0 keeps everything; otherwise series with ErrorBound >= maxEB
// are dropped (the paper's "error bounds strictly below 1E-2" panels).
func PanelsByCompressor(ms []Measurement, sel StatSelector, maxEB float64) []Panel {
	series := BuildSeries(ms, sel, YRatio)
	byComp := make(map[string][]Series)
	var names []string
	for _, s := range series {
		if maxEB >= 0 && s.ErrorBound >= maxEB {
			continue
		}
		if _, ok := byComp[s.Compressor]; !ok {
			names = append(names, s.Compressor)
		}
		byComp[s.Compressor] = append(byComp[s.Compressor], s)
	}
	sort.Strings(names)
	panels := make([]Panel, 0, len(names))
	for _, n := range names {
		panels = append(panels, Panel{Title: n, XLabel: sel.String(), Series: byComp[n]})
	}
	return panels
}

// Render writes a figure as aligned text tables, one block per panel
// and one row per datapoint, with fit coefficients in the legend line —
// the textual equivalent of the paper's plots.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, p := range f.Panels {
		if _, err := fmt.Fprintf(w, "\n-- panel: %s  (x = %s) --\n", p.Title, p.XLabel); err != nil {
			return err
		}
		for _, s := range p.Series {
			legend := "fit unavailable"
			if s.FitOK {
				legend = s.Fit.String()
			}
			if _, err := fmt.Fprintf(w, "series %s eb=%.0e  %s\n", s.Compressor, s.ErrorBound, legend); err != nil {
				return err
			}
			for i := range s.X {
				if _, err := fmt.Fprintf(w, "  x=%12.5f  CR=%10.3f\n", s.X[i], s.Y[i]); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
