package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lossycorr/internal/parallel"
	"lossycorr/internal/xrand"
)

// maxSetups caps the set-ups of one run.
const maxSetups = 25

// runConfig fixes one run of one workload.
type runConfig struct {
	seed   uint64
	window time.Duration
	trace  bool
	sz     sizes
	out    io.Writer // the human-readable report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's verdict and metrics: the JSON object the
// benchmark prints as its last line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run makes w's inputs, sets it up and measures it once. Untraced runs
// report the end-to-end metrics; traced runs the per-layer metrics, with
// their spans left in the returned tracer.
func run(w workload, cfg runConfig) (runResult, *tracer, error) {
	fmt.Fprintf(cfg.out, "== %s  seed=%d  window=%v  trace=%t\n", w.Name, cfg.seed, cfg.window, cfg.trace)
	st := time.Now()
	l, err := w.prepare(cfg.seed, cfg.sz, w.clients)
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s: making inputs: %w", w.Name, err)
	}
	printLine(cfg.out, "gen_s", time.Since(st).Seconds(), "s", 1)

	var rssErr error
	if !cfg.trace {
		debug.FreeOSMemory()
		rssErr = resetPeakRSS(procSelf)
	}
	// Set-up repeats at least sz.setups times and for sz.setupTime in
	// all, so a cheap set-up's median rests on more samples.
	var setupS []float64
	var spent time.Duration
	for len(setupS) < maxSetups && (len(setupS) < cfg.sz.setups || spent < cfg.sz.setupTime) {
		if len(setupS) > 0 {
			l.tearDown()
		}
		st := time.Now()
		err := l.setUp()
		d := time.Since(st)
		setupS, spent = append(setupS, d.Seconds()), spent+d
		if err != nil {
			l.tearDown()
			return runResult{}, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		if cfg.trace {
			break // setup_s is not a per-layer metric
		}
	}
	defer l.tearDown()

	res := runResult{Correct: true, Metrics: make(map[string]metric)}
	next := make([]int, w.clients)
	var ops []outcome
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		ops, err = tracedWindow(l, cfg, next, tr, &res)
	} else {
		ops = e2eWindow(l, cfg, next, median(setupS), len(setupS), rssErr, &res)
	}
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, o := range ops {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(cfg.out, "  FAIL op (%d,%d): %v\n", o.c, o.i, o.err)
			}
		}
	}
	for _, o := range sample(ops, cfg.sz.verify, cfg.seed) {
		res.Attempted++
		if err := l.verify(o); err != nil {
			res.Failed++
			fmt.Fprintf(cfg.out, "  FAIL check: %v\n", err)
		}
	}
	printLine(cfg.out, "fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "", res.Attempted)
	res.Correct = res.Correct && res.Failed == 0
	return res, tr, nil
}

// e2eWindow measures the end-to-end metrics over one untraced window.
func e2eWindow(l load, cfg runConfig, next []int, setupS float64, setups int, rssErr error, res *runResult) []outcome {
	ops, elapsed := window(next, cfg.window, cfg.sz.minOps, l.cycle(), func(c, i int) outcome { return l.op(c, i, false) })
	lat := latenciesMs(ops)
	ok := 0
	for _, o := range ops {
		if o.err == nil {
			ok++
		}
	}
	put := func(name string, v float64, n int) {
		spec, _ := e2eByName(name)
		res.Metrics[name] = metric{v, spec.Unit}
		printLine(cfg.out, name, v, spec.Unit, n)
	}
	put("setup_s", setupS, setups)
	put("ops_per_s", float64(ok)/elapsed.Seconds(), len(ops))
	for _, p := range []float64{50, 90} {
		name := fmt.Sprintf("lat_p%g_ms", p)
		v, err := percentile(lat, p)
		if err != nil {
			fmt.Fprintf(cfg.out, "  %-34s refused: %v\n", name, err)
			res.Correct = false
			continue
		}
		put(name, v, len(lat))
	}
	rss, err := peakRSSMB(procSelf)
	if rssErr == nil && err == nil {
		put("peak_rss_MB", rss, 1)
	} else {
		fmt.Fprintf(cfg.out, "  %-34s unavailable: %v\n", "peak_rss_MB", errors.Join(rssErr, err))
		res.Correct = false
	}
	return ops
}

// tracedWindow measures the per-layer metrics. Its first half runs
// untraced ops, which give the program and runtime counters and the
// untraced latency trace.overhead compares with; its second half runs
// traced ops, each followed by the replay of its layer calls.
func tracedWindow(l load, cfg runConfig, next []int, t *tracer, res *runResult) ([]outcome, error) {
	half := cfg.window / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	plain, elapsed := window(next, half, 1, l.cycle(), func(c, i int) outcome { return l.op(c, i, false) })
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)

	traced, _ := window(next, half, 1, l.cycle(), func(c, i int) outcome {
		o := l.op(c, i, true)
		if o.err != nil {
			return o
		}
		id := c<<20 | i
		t.add(0, id, "op", o.start, o.start.Add(o.latency))
		root := t.open(0, id, "replay")
		if err := l.replay(t, root, id, o); err != nil {
			o.err = fmt.Errorf("replay: %w", err)
		}
		t.end(root)
		return o
	})

	m := make(map[string]float64)
	n := make(map[string]int)
	self := t.selfTimes()
	for name, s := range layerMedians(self) {
		if name != "op" && name != "replay" {
			m[name+"_ms"], n[name+"_ms"] = s.value, s.n
		}
	}
	m["trace.explained"], n["trace.explained"] = explained(t.roots())
	m["trace.overhead"], n["trace.overhead"] = median(latenciesMs(traced))/median(latenciesMs(plain))-1, len(traced)
	m["stat.concurrency_x"], n["stat.concurrency_x"] = concurrency(traced, self)

	ops := float64(len(plain))
	m["runtime.alloc_MB_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops
	m["runtime.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	m["runtime.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	m["proc.cpu_util"] = float64(cpu1-cpu0) / (float64(elapsed) * float64(runtime.GOMAXPROCS(0)))
	m["parallel.peak_extra_workers"] = float64(parallel.PeakExtraWorkers())
	var peaks []float64
	for _, o := range plain {
		if o.err == nil && !o.cached {
			peaks = append(peaks, float64(o.poolPeak)/1e6)
		}
	}
	m["fft.peak_MB"], n["fft.peak_MB"] = median(peaks), len(peaks)

	all := append(plain, traced...)
	own, err := l.layers(all)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(cfg.out, "  FAIL layers: %v\n", err)
	}
	for k, v := range own {
		m[k] = v
	}
	for _, spec := range layerSpecs {
		v := m[spec.Name] // a layer the workload bypasses reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(cfg.out, "  FAIL %s = %v\n", spec.Name, v)
			res.Correct, v = false, 0
		}
		res.Metrics[spec.Name] = metric{v, spec.Unit}
		cnt, ok := n[spec.Name]
		if !ok {
			cnt = len(all)
		}
		printLine(cfg.out, spec.Name, v, spec.Unit, cnt)
	}
	for k := range m {
		if _, declared := layerByName(k); !declared {
			return nil, fmt.Errorf("undeclared per-layer metric %q", k)
		}
	}
	return all, nil
}

// explained is trace.explained: the median over traced ops of the
// replay's duration over the op's. Taking the ratio per op keeps ops of
// different cost from pairing up across the two medians.
func explained(roots []span) (float64, int) {
	op := make(map[int]int64)
	for _, s := range roots {
		if s.Name == "op" {
			op[s.Op] = s.End - s.Start
		}
	}
	var xs []float64
	for _, s := range roots {
		if d, ok := op[s.Op]; ok && s.Name == "replay" && d > 0 {
			xs = append(xs, float64(s.End-s.Start)/float64(d))
		}
	}
	return median(xs), len(xs)
}

// concurrency is stat.concurrency_x: per traced op that ran more than
// one kernel, the summed single-kernel replay times over the time the
// full analysis took (the service's own elapsedMs, or the library call).
func concurrency(ops []outcome, self map[int]map[string]time.Duration) (float64, int) {
	var xs []float64
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		var sum time.Duration
		kernels := 0
		for _, name := range []string{"stat.variogram", "stat.localrange", "stat.svd"} {
			if d, ok := self[o.c<<20|o.i][name]; ok {
				sum += d
				kernels++
			}
		}
		full := o.execMs
		if full == 0 {
			full = float64(o.latency) / 1e6
		}
		if kernels > 1 && full > 0 {
			xs = append(xs, float64(sum)/1e6/full)
		}
	}
	return median(xs), len(xs)
}

// window runs one closed loop per client: each sends its next op as soon
// as the previous one returns. A client stops once d has passed, at
// least minOps ops have completed, and its op count is a whole number of
// input cycles. Client c numbers its ops from next[c] on and leaves
// next[c] at the first number it has not used.
func window(next []int, d time.Duration, minOps, cycle int, do func(c, i int) outcome) ([]outcome, time.Duration) {
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]outcome, len(next))
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || done.Load() < int64(minOps) || next[c]%cycle != 0 {
				per[c] = append(per[c], do(c, next[c]))
				next[c]++
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// latenciesMs lists the ops' latencies; a failed op counts as missing
// every latency limit.
func latenciesMs(ops []outcome) []float64 {
	out := make([]float64, len(ops))
	for k, o := range ops {
		out[k] = math.Inf(1)
		if o.err == nil {
			out[k] = float64(o.latency) / 1e6
		}
	}
	return out
}

// sample picks n of the successful ops, seeded; ops come in client
// order and, per client, in op order, so the pick is reproducible.
func sample(ops []outcome, n int, seed uint64) []outcome {
	var ok []outcome
	for _, o := range ops {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	rng := xrand.New(seed)
	rng.Shuffle(len(ok), func(a, b int) { ok[a], ok[b] = ok[b], ok[a] })
	return ok[:min(n, len(ok))]
}

func printLine(out io.Writer, name string, v float64, unit string, n int) {
	fmt.Fprintf(out, "  %-34s %14.4f %-6s n=%d\n", name, v, unit, n)
}
