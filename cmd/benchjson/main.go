// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report — the perf-trajectory record committed
// at the repo root as BENCH_pr5.json and regenerated by CI (which
// passes -min 1 so an empty bench run fails the build loudly instead
// of uploading a hollow record). It parses the standard benchmark metrics (ns/op,
// B/op, allocs/op, MB/s) plus every custom gauge the harness reports
// (CR:*, beta:*, R2:*, ratio, …) into one metrics map per benchmark,
// so two runs can be diffed with nothing more than jq. Rows repeated by
// `go test -count N` fold into one record: the row with the median
// ns/op, with "samples": N.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' ./... | benchjson -out BENCH.json
//	benchjson bench.txt            # read a saved log instead of stdin
//
// Comparing two records by hand:
//
//	jq -r '.benchmarks[] | [.name, .ns_per_op, .allocs_per_op] | @tsv' BENCH_a.json
//
// Gating against a committed baseline (the CI perf-regression gate):
//
//	go test -bench=. ... | benchjson -baseline BENCH_pr6.json -threshold 0.15 -out BENCH.json
//	benchjson -baseline BENCH_pr6.json BENCH_pr7.json   # diff two committed records
//
// With -baseline, every benchmark present in both records is compared
// by ns/op; any current result slower than baseline by more than the
// threshold fraction fails the run. Benchmarks only in one record are
// listed as retired or added but never fail the gate — PRs add and
// retire benchmarks.
// B/op and custom-gauge deltas are printed alongside for trend
// visibility but are informational only: the failing gate considers
// ns/op and nothing else.
// Input may be raw `go test -bench` text or an already-converted JSON
// report (sniffed by the leading byte), so the gate works both live in
// CI and offline on two committed records.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Samples is how many -count rows the record stands for (omitted
	// for one); the row kept is the one with the median ns/op.
	Samples int `json:"samples,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Schema     string      `json:"schema"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse reads `go test -bench` output and collects every benchmark
// line, tracking the current package from `pkg:` headers.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: "lossycorr-bench/v1"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("benchjson: %w in line %q", err, line)
		}
		if b == nil {
			continue // a Benchmark... line without results (e.g. a group header)
		}
		b.Pkg = pkg
		rep.Benchmarks = append(rep.Benchmarks, *b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	return rep, nil
}

// foldRepeats collapses the repeated rows of a `-count N` run: each
// (package, name) keeps its row with the median ns/op (the lower
// median for even N), gauges included, and Samples records how many
// rows it stands for. Rows keep their first-appearance order.
func foldRepeats(bs []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	groups := map[key][]Benchmark{}
	var order []key
	for _, b := range bs {
		k := key{b.Pkg, b.Name}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		sort.SliceStable(g, func(i, j int) bool { return g[i].NsPerOp < g[j].NsPerOp })
		m := g[(len(g)-1)/2]
		m.Samples = len(g)
		out = append(out, m)
	}
	return out
}

// parseLine parses one result line: name, iteration count, then
// (value, unit) pairs.
func parseLine(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, nil // "BenchmarkFoo \t--- FAIL" and similar
	}
	b := &Benchmark{Name: fields[0], Iterations: iters}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit field count")
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", rest[i])
		}
		unit := rest[i+1]
		switch unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.MBPerS = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// load reads either raw `go test -bench` text or an already-converted
// JSON report, sniffing by the first non-space byte.
func load(r io.Reader) (*Report, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		b, err := br.Peek(1)
		if err != nil {
			if err == io.EOF {
				return &Report{Schema: "lossycorr-bench/v1"}, nil
			}
			return nil, err
		}
		if b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r' {
			br.Discard(1)
			continue
		}
		if b[0] == '{' {
			rep := &Report{}
			if err := json.NewDecoder(br).Decode(rep); err != nil {
				return nil, fmt.Errorf("benchjson: bad JSON report: %w", err)
			}
			return rep, nil
		}
		return parse(br)
	}
}

// diff is one name-matched ns/op comparison against the baseline.
type diff struct {
	Name     string
	Old, New float64
	Delta    float64 // (new-old)/old; positive = current is slower
}

// compareBaseline matches benchmarks by name and returns every paired
// ns/op comparison plus the subset regressed beyond the threshold
// fraction. Benchmarks without ns/op on either side are skipped, and
// names present in only one record never fail the gate.
func compareBaseline(cur, base *Report, threshold float64) (diffs, regressed []diff) {
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if b.NsPerOp > 0 {
			old[b.Name] = b.NsPerOp
		}
	}
	for _, b := range cur.Benchmarks {
		prev, ok := old[b.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		d := diff{Name: b.Name, Old: prev, New: b.NsPerOp, Delta: (b.NsPerOp - prev) / prev}
		diffs = append(diffs, d)
		if d.Delta > threshold {
			regressed = append(regressed, d)
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Delta > diffs[j].Delta })
	return diffs, regressed
}

// oneSided returns the benchmark names only the baseline has (retired)
// and only the current record has (added), each sorted. They are
// listed beside the gate and never fail it.
func oneSided(cur, base *Report) (retired, added []string) {
	in := func(r *Report) map[string]bool {
		m := make(map[string]bool, len(r.Benchmarks))
		for _, b := range r.Benchmarks {
			m[b.Name] = true
		}
		return m
	}
	inCur, inBase := in(cur), in(base)
	for name := range inBase {
		if !inCur[name] {
			retired = append(retired, name)
		}
	}
	for name := range inCur {
		if !inBase[name] {
			added = append(added, name)
		}
	}
	sort.Strings(retired)
	sort.Strings(added)
	return retired, added
}

// compareInfo lists B/op and custom-gauge deltas between name-matched
// benchmarks. These are printed for trend visibility but never gated:
// allocation accounting and gauge semantics shift too easily across
// PRs for a hard threshold to be meaningful, so only ns/op fails the
// build.
func compareInfo(cur, base *Report) []string {
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	var lines []string
	for _, b := range cur.Benchmarks {
		prev, ok := old[b.Name]
		if !ok {
			continue
		}
		if prev.BytesPerOp > 0 && b.BytesPerOp > 0 {
			lines = append(lines, fmt.Sprintf("%+7.1f%%  %s  (%.0f -> %.0f B/op)",
				(b.BytesPerOp-prev.BytesPerOp)/prev.BytesPerOp*100, b.Name, prev.BytesPerOp, b.BytesPerOp))
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pv, ok := prev.Metrics[k]
			if !ok || pv == 0 {
				continue
			}
			v := b.Metrics[k]
			lines = append(lines, fmt.Sprintf("%+7.1f%%  %s  (%g -> %g %s)",
				(v-pv)/pv*100, b.Name, pv, v, k))
		}
	}
	return lines
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	min := flag.Int("min", 0, "fail unless at least this many benchmark records parsed (CI guard against silently-empty perf records)")
	baseline := flag.String("baseline", "", "baseline JSON report to gate ns/op against (fail on regressions beyond -threshold)")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op slowdown vs -baseline before failing")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	rep, err := load(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) < *min {
		fmt.Fprintf(os.Stderr, "benchjson: parsed only %d benchmark records, need at least %d — the bench run produced no (or too few) parseable results\n",
			len(rep.Benchmarks), *min)
		os.Exit(1)
	}
	gateFailed := false
	if *baseline != "" {
		bf, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base, err := load(bf)
		bf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		diffs, regressed := compareBaseline(rep, base, *threshold)
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "benchjson: %+7.1f%%  %s  (%.0f -> %.0f ns/op)\n",
				d.Delta*100, d.Name, d.Old, d.New)
		}
		for _, line := range compareInfo(rep, base) {
			fmt.Fprintf(os.Stderr, "benchjson: info %s\n", line)
		}
		retired, added := oneSided(rep, base)
		for _, name := range retired {
			fmt.Fprintf(os.Stderr, "benchjson: retired %s (baseline only, not gated)\n", name)
		}
		for _, name := range added {
			fmt.Fprintf(os.Stderr, "benchjson: added %s (no baseline, not gated)\n", name)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gated %d benchmarks against %s at %.0f%% threshold, %d regressed (B/op and gauge lines informational)\n",
			len(diffs), *baseline, *threshold*100, len(regressed))
		gateFailed = len(regressed) > 0
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if gateFailed {
		fmt.Fprintln(os.Stderr, "benchjson: FAIL — ns/op regression beyond threshold (see diff above)")
		os.Exit(1)
	}
}
