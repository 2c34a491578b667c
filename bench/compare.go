package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is the fewest parent/change run pairs a comparison accepts.
const minPairs = 10

// loadRecords reads the untraced -json results in dir, by workload and
// seed.
func loadRecords(dir string) (map[string]map[uint64]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[uint64]record)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[uint64]record)
		}
		out[r.Workload][r.Seed] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced results in %s", dir)
	}
	return out, nil
}

// spread is one metric's runs summarized: the median and quartiles as
// statistics.quantiles(n=4) gives them, and the interquartile range as a
// share of the median.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr_share"`
}

func spreadOf(xs []float64) spread {
	s := spread{N: len(xs), Median: median(xs)}
	if q1, _, q3, err := quartiles(xs); err == nil {
		s.Q1, s.Q3 = q1, q3
		s.IQR = (q3 - q1) / math.Abs(s.Median)
	}
	return s
}

func values(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summarize prints, as JSON, the median and quartiles of every
// end-to-end metric per workload over the runs in dir — the form of
// bench/baseline.json.
func summarize(dir string, stdout, stderr io.Writer) int {
	recs, err := loadRecords(dir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	out := make(map[string]map[string]spread)
	for _, w := range workloads {
		var runs []record
		for _, r := range recs[w.Name] {
			runs = append(runs, r)
		}
		if len(runs) == 0 {
			continue
		}
		out[w.Name] = make(map[string]spread)
		for _, m := range e2eSpecs {
			out[w.Name][m.Name] = spreadOf(values(runs, m.Name))
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// compareDirs compares a change's runs with its parent's, pairing runs by
// seed. Per workload and end-to-end metric it reports each side's median
// and quartiles and one verdict:
//
//   - gain: the change wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's IQR;
//   - better: every change run beats every parent run;
//   - unresolved: either side's IQR is wider than the metric's bound;
//   - regression: the change's median is worse by more than the bound;
//   - ok: otherwise.
//
// It exits non-zero when a workload has fewer than minPairs pairs, or any
// metric is a regression or unresolved.
func compareDirs(parentDir, changeDir string, stdout, stderr io.Writer) int {
	parent, err := loadRecords(parentDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-12s %5s  %-32s %-32s %8s %6s  %s\n",
		"workload", "metric", "pairs", "parent median [q1,q3]", "change median [q1,q3]", "delta", "wins", "verdict")
	for _, w := range workloads {
		var seeds []uint64
		for s := range parent[w.Name] {
			if _, ok := change[w.Name][s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(parent[w.Name]) == 0 && len(change[w.Name]) == 0 {
			continue
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		if len(seeds) < minPairs {
			fmt.Fprintf(stdout, "%-14s %d pairs, need %d\n", w.Name, len(seeds), minPairs)
			status = 1
			continue
		}
		var ps, cs []record
		for _, s := range seeds {
			ps, cs = append(ps, parent[w.Name][s]), append(cs, change[w.Name][s])
		}
		for _, m := range e2eSpecs {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) != len(seeds) || len(cv) != len(seeds) {
				fmt.Fprintf(stdout, "%-14s %-12s missing in some runs\n", w.Name, m.Name)
				status = 1
				continue
			}
			v := judge(m, pv, cv)
			if v.verdict == "regression" || v.verdict == "unresolved" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-12s %5d  %-32s %-32s %+7.2f%% %3d/%-2d  %s\n",
				w.Name, m.Name, len(seeds), fmtSpread(v.parent), fmtSpread(v.change),
				100*v.delta, v.wins, len(seeds), v.verdict)
		}
	}
	return status
}

type judgement struct {
	parent, change spread
	delta          float64 // (change − parent) / parent median
	wins           int     // pairs the change wins
	verdict        string
}

// judge applies the rules compareDirs documents to one metric's paired
// runs.
func judge(m e2eSpec, pv, cv []float64) judgement {
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j := judgement{parent: spreadOf(pv), change: spreadOf(cv)}
	j.delta = (j.change.Median - j.parent.Median) / math.Abs(j.parent.Median)
	for k := range pv {
		if better(cv[k], pv[k]) {
			j.wins++
		}
	}
	worstChange, bestParent := cv[0], pv[0]
	for k := range pv {
		if better(worstChange, cv[k]) {
			worstChange = cv[k]
		}
		if better(pv[k], bestParent) {
			bestParent = pv[k]
		}
	}
	worse := -j.delta
	if m.Better == "lower" {
		worse = j.delta
	}
	switch {
	case 10*j.wins >= 9*len(pv) && better(j.change.Median, j.parent.Median) &&
		math.Abs(j.change.Median-j.parent.Median) > j.parent.Q3-j.parent.Q1:
		j.verdict = "gain"
	case better(worstChange, bestParent):
		j.verdict = "better"
	case j.parent.IQR > m.Bound || j.change.IQR > m.Bound:
		j.verdict = "unresolved"
	case worse > m.Bound:
		j.verdict = "regression"
	default:
		j.verdict = "ok"
	}
	return j
}

func fmtSpread(s spread) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Median, s.Q1, s.Q3)
}
