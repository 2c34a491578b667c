package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = float64(n - k) // descending, so percentile must sort
		}
		return out
	}
	if _, err := percentile(xs(99), 90); err == nil {
		t.Error("p90 of 99 samples: want a refusal")
	}
	if v, err := percentile(xs(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs(19), 50); err == nil {
		t.Error("p50 of 19 samples: want a refusal")
	}
	if v, err := percentile(xs(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: want a refusal")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, %v; want 2.75 5.5 8.25", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3, err = quartiles([]float64{2, 1})
	if err != nil || q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, %v; want 0.75 1.5 2.25", q1, q2, q3, err)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestJudge(t *testing.T) {
	lat := e2eSpec{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2}
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	scaled := func(k float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = k * x
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		want   string
	}{
		{"faster everywhere", parent, scaled(0.9, parent), "gain"},
		{"same", parent, parent, "ok"},
		{"slower within bound", parent, scaled(1.1, parent), "ok"},
		{"slower beyond bound", parent, scaled(1.3, parent), "regression"},
		{"too noisy to tell", parent, noisy, "unresolved"},
		{"noisy, every run better, no clear gain", []float64{141, 142, 143, 144, 145, 300, 300, 300, 300, 300}, noisy, "better"},
	} {
		if got := judge(lat, tc.parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPeakRSSReset(t *testing.T) {
	if _, err := os.Stat(procSelf + "/clear_refs"); err != nil {
		t.Skipf("no clear_refs: %v", err)
	}
	const size = 128 << 20
	buf := make([]byte, size)
	for k := 0; k < len(buf); k += 4096 {
		buf[k] = 1
	}
	high, err := peakRSSMB(procSelf)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(buf)
	buf = nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(procSelf); err != nil {
		t.Fatal(err)
	}
	low, err := peakRSSMB(procSelf)
	if err != nil {
		t.Fatal(err)
	}
	if high-low < size/2/1e6 {
		t.Errorf("peak RSS %.1f MB before the reset, %.1f MB after: want a drop of at least %d MB", high, low, size/2/1000000)
	}
}

func TestPeakRSSUnavailable(t *testing.T) {
	dir := t.TempDir() // no clear_refs, no status
	if err := resetPeakRSS(dir); !errors.Is(err, errRSSUnavailable) || !strings.Contains(err.Error(), "unavailable") {
		t.Errorf("reset without clear_refs: %v; want an unavailable error", err)
	}
	if _, err := peakRSSMB(dir); !errors.Is(err, errRSSUnavailable) {
		t.Errorf("read without status: %v; want an unavailable error", err)
	}
}

func TestInputDigests(t *testing.T) {
	digests := func(w workload, seed uint64) [][32]byte {
		l, err := w.prepare(seed, tinySizes, w.clients)
		if err != nil {
			t.Fatal(err)
		}
		var out [][32]byte
		for c := 0; c < w.clients; c++ {
			for i := 0; i < 8; i++ {
				out = append(out, l.inputDigest(c, i))
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b, other := digests(w, 1), digests(w, 1), digests(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 made different inputs twice", w.Name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 made the same inputs", w.Name)
		}
	}
}

// TestSmoke runs every workload through the whole harness at tinySizes:
// an untraced run with the 100 ops p90 needs, and a traced run of one
// input cycle per half. Each must be correct and emit exactly the
// declared metrics.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/e2e"
			want := make([]string, 0, len(layerSpecs))
			for _, m := range e2eSpecs {
				want = append(want, m.Name)
			}
			sz := tinySizes
			if trace {
				name = w.Name + "/traced"
				want = want[:0]
				for _, m := range layerSpecs {
					want = append(want, m.Name)
				}
			} else {
				sz.minOps = 100
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := run(w, runConfig{seed: 1, trace: trace, sz: sz, out: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%t failed=%d", res.Correct, res.Failed)
				}
				got := make([]string, 0, len(res.Metrics))
				for name := range res.Metrics {
					got = append(got, name)
				}
				if !sameSet(got, want) {
					t.Errorf("emitted %v, declared %v", got, want)
				}
			})
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v; want under 10s", d)
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations keeps BENCHMARK.json and the harness's declarations
// identical, and every name and unit within the benchmark's syntax.
func TestDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %v, want %v", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths %v, want %v", f.Paths, want)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, runSeconds)
	}
	var specs []workloadSpec
	for _, w := range workloads {
		specs = append(specs, w.workloadSpec)
	}
	if !reflect.DeepEqual(f.Workloads, specs) {
		t.Errorf("workloads\n%v\nharness runs\n%v", f.Workloads, specs)
	}
	if !reflect.DeepEqual(f.EndToEnd, e2eSpecs) {
		t.Errorf("end_to_end\n%v\nharness emits\n%v", f.EndToEnd, e2eSpecs)
	}
	if !reflect.DeepEqual(f.PerLayer, layerSpecs) {
		t.Errorf("per_layer\n%v\nharness emits\n%v", f.PerLayer, layerSpecs)
	}
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q outside [A-Za-z0-9_/%%.-]", name, unit)
		}
	}
	for _, w := range f.Workloads {
		check(w.Name, "")
	}
	bound := 0.0
	for _, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" {
			bound = max(bound, m.Bound)
		}
	}
	if s, ok := e2eByName("setup_s"); !ok || s.Bound < bound {
		t.Errorf("setup_s must be declared with the largest bound")
	}
	for _, m := range f.PerLayer {
		check(m.Name, m.Unit)
	}
}
