// Command bench is the lossycorr benchmark: four workloads, from
// corrcompd analyze requests to the paper's codec sweep, driven through
// the public entry points of the service, core and field packages in one
// process.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-json DIR]
//	bash bench/run.sh -compare DIR [CHANGE_DIR]
//
// An untraced run prints the end-to-end metrics, a traced run (-trace 1)
// the per-layer metrics; both end with one JSON line holding the verdict
// and the metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four, in order)")
	seed := fs.Uint64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", runSeconds, "length of each timed window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans to this JSON file")
	jsonDir := fs.String("json", "", "also write each run's result to a file in this directory")
	compare := fs.Bool("compare", false, "summarize the -json results in DIR, or compare PARENT_DIR with CHANGE_DIR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		switch fs.NArg() {
		case 1:
			return summarize(fs.Arg(0), stdout, stderr)
		case 2:
			return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
		}
		fmt.Fprintln(stderr, "bench: -compare takes one or two directories")
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		sz:     fullSizes,
		out:    stdout,
	}
	status := 0
	spans := make(map[string][]span)
	for _, w := range todo {
		res, tr, err := run(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if tr != nil {
			spans[w.Name] = tr.spans
		}
		if *jsonDir != "" {
			if err := writeRecord(*jsonDir, record{w.Name, *seed, cfg.trace, res}); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			status = 1
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// record is one run as -json stores it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	runResult
}

func writeRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%d.json", r.Workload, r.Seed)
	if r.Trace {
		name = fmt.Sprintf("%s-%d-trace.json", r.Workload, r.Seed)
	}
	return writeJSON(filepath.Join(dir, name), r)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
