package main

// The benchmark's declared metrics (its workloads are in workloads.go).
// BENCHMARK.json at the root of the repository declares the same lists;
// TestDeclarations keeps the two identical, and TestSmoke checks that a
// run emits exactly these names.

// runSeconds is the default length of one run's timed window.
const runSeconds = 20

// workloadSpec names a workload and records why the benchmark has it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eSpec is an end-to-end metric: what a user of corrcompd or of the
// library waits on. Bound is the share of the parent's median by which it
// may worsen before a change counts as a regression.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is a per-layer metric of the traced run; it has no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The timing bounds are the largest the benchmark allows: on a host
// shared with other tenants, ten runs of one workload spread over an
// interquartile range of 5–30% of their median.
var e2eSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.15},
}

var layerSpecs = []layerSpec{
	{"service.roundtrip_ms", "ms", "lower"},
	{"service.exec_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.spool_ms", "ms", "lower"},
	{"service.hash_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"field.read_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.runs_per_req", "ratio", "lower"},
	{"service.flights_joined", "count", "higher"},
	{"service.rejected", "count", "lower"},
	{"stat.variogram_ms", "ms", "lower"},
	{"stat.localrange_ms", "ms", "lower"},
	{"stat.svd_ms", "ms", "lower"},
	{"stat.concurrency_x", "x", "higher"},
	{"stat.variogram.f64_ms", "ms", "lower"},
	{"stat.variogram.f32_ms", "ms", "lower"},
	{"fft.peak_MB", "MB", "lower"},
	{"stream.tile_reads", "count", "lower"},
	{"stream.point_reads", "count", "lower"},
	{"stream.tile_read_MB", "MB", "lower"},
	{"stream.tile_read_ms", "ms", "lower"},
	{"compress.sz-like.compress_ms", "ms", "lower"},
	{"compress.sz-like.decompress_ms", "ms", "lower"},
	{"compress.sz-like.ratio", "x", "higher"},
	{"compress.zfp-like.compress_ms", "ms", "lower"},
	{"compress.zfp-like.decompress_ms", "ms", "lower"},
	{"compress.zfp-like.ratio", "x", "higher"},
	{"compress.mgard-like.compress_ms", "ms", "lower"},
	{"compress.mgard-like.decompress_ms", "ms", "lower"},
	{"compress.mgard-like.ratio", "x", "higher"},
	{"field.diff_ms", "ms", "lower"},
	{"compress.cr_geomean", "x", "higher"},
	{"regression.fit_r2", "1", "higher"},
	{"core.train_ms", "ms", "lower"},
	{"core.predict_us", "us", "lower"},
	{"parallel.peak_extra_workers", "count", "higher"},
	{"proc.cpu_util", "ratio", "higher"},
	{"runtime.alloc_MB_per_op", "MB", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"trace.explained", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func layerByName(name string) (layerSpec, bool) {
	for _, m := range layerSpecs {
		if m.Name == name {
			return m, true
		}
	}
	return layerSpec{}, false
}

func e2eByName(name string) (e2eSpec, bool) {
	for _, m := range e2eSpecs {
		if m.Name == name {
			return m, true
		}
	}
	return e2eSpec{}, false
}
