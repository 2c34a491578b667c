// Command corrcomp is the command-line front end of the lossycorr
// library: it generates correlated fields (2D or 3D),
// extracts their correlation statistics, runs error-bounded lossy
// compressors over them, and fits the paper's CR = α + β·log(x)
// regressions.
//
// Subcommands:
//
//	corrcomp gen       -kind gaussian -rows 256 -cols 256 -range 16 -seed 1 -out field.bin
//	corrcomp gen       -kind gaussian -dims 64,64,64 -range 6 -f32 -out vol.bin  # float32 lane
//	corrcomp analyze   -in field.bin [-window 32]   # 2D or 3D, lane + rank auto-detected
//	corrcomp analyze   -in field.bin -f32           # force the float32 compute lane
//	corrcomp compress  -in field.bin -codec sz-like -eb 1e-3
//	corrcomp sweep     -in field.bin            # the input's rank's codecs × paper bounds
//	corrcomp predict   -size 128 -train 6       # train models, select codec
//	corrcomp predict   -ndim 3 -size 24 -in vol.bin  # 3D models for a volume
//	corrcomp list                               # available compressors per rank
//
// 2D float64 fields are stored in the library's legacy binary format
// (two uint32 dimensions + float64 payload, little endian); volumes
// and float32-lane fields use the tagged "LCF1" field format (the
// float32 element tag in the rank word). Every reader auto-detects
// lane and rank, so analyze/compress/sweep run the matching pipeline:
// float32 files flow through the half-bandwidth compute lane end to
// end, with the error bound still checked on their values.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"lossycorr"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "entropy":
		err = cmdEntropy(os.Args[2:])
	case "sample":
		err = cmdSample(os.Args[2:])
	case "list":
		for _, ndim := range []int{2, 3} {
			for _, n := range lossycorr.CompressorsFor(ndim) {
				fmt.Printf("%s\t(%dD)\n", n, ndim)
			}
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "corrcomp: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "corrcomp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: corrcomp <gen|analyze|compress|sweep|predict|entropy|sample|list> [flags]
run "corrcomp <subcommand> -h" for the flags of each subcommand`)
}

func cmdEntropy(args []string) error {
	fs := flag.NewFlagSet("entropy", flag.ExitOnError)
	in := fs.String("in", "field.bin", "input field")
	eb := fs.Float64("eb", 1e-3, "absolute error bound")
	fs.Parse(args)

	fld, err := readField(*in)
	if err != nil {
		return err
	}
	h, err := lossycorr.QuantizedEntropy(fld, *eb)
	if err != nil {
		return err
	}
	fmt.Printf("quantized entropy at eb=%.0e: %.4f bits/value\n", *eb, h)
	fmt.Printf("entropy-bound compression ratio: %.3f\n", lossycorr.EstimateEntropyRatio(h))
	for _, name := range lossycorr.CompressorsFor(fld.NDim()) {
		res, err := lossycorr.MeasureField(context.Background(), name, fld, *eb)
		if err != nil {
			return err
		}
		fmt.Printf("measured %-11s ratio: %.3f\n", name, res.Ratio)
	}
	return nil
}

func cmdSample(args []string) error { return runSample(os.Stdout, args) }

// runSample is the sample subcommand, printing to w. The field is
// sampled on the lane its file stores, so a float32 file is never
// widened; both lanes give the same bits.
func runSample(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	in := fs.String("in", "field.bin", "input field")
	window := fs.Int("window", 32, "local window H")
	stat := fs.String("stat", "range", "statistic: range | svd")
	seed := fs.Uint64("seed", 1, "sampling seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	fs.Parse(args)

	fld, n32, err := readFieldAny(*in)
	if err != nil {
		return err
	}
	opts := lossycorr.SamplingOptions{Seed: *seed, Workers: *workers}
	var points []lossycorr.SamplingSweepPoint
	if n32 != nil {
		points, err = lossycorr.SweepSamplingFractions(context.Background(), n32, *window, *stat, nil, opts)
	} else {
		points, err = lossycorr.SweepSamplingFractions(context.Background(), fld, *window, *stat, nil, opts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sampling sweep of local %q statistic (H=%d):\n", *stat, *window)
	fmt.Fprintf(w, "%10s %12s %12s %10s\n", "fraction", "estimate", "reference", "rel.err")
	for _, p := range points {
		fmt.Fprintf(w, "%10.2f %12.4f %12.4f %9.1f%%\n",
			p.Fraction, p.Estimate, p.Reference, 100*p.RelError)
	}
	return nil
}

// parseDims parses a comma-separated extent list ("64,64,64").
func parseDims(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var dims []int
	for _, tok := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -dims entry %q", tok)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, s := range shape {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, "x")
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "gaussian", "gaussian | multi | turbulence")
	rows := fs.Int("rows", 256, "field rows (2D)")
	cols := fs.Int("cols", 256, "field cols (2D)")
	dims := fs.String("dims", "", "volume extents nz,ny,nx — switches gaussian to 3D")
	rang := fs.Float64("range", 16, "correlation range (gaussian)")
	ranges := fs.String("ranges", "4,32", "comma-separated ranges (multi)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("out", "field.bin", "output file")
	pgm := fs.Bool("pgm", false, "also write a .pgm preview (2D only)")
	f32 := fs.Bool("f32", false, "write the float32 lane (half the bytes; values narrowed once at generation)")
	fs.Parse(args)

	d3, err := parseDims(*dims)
	if err != nil {
		return err
	}
	var fld *lossycorr.Field
	switch *kind {
	case "gaussian":
		if len(d3) == 3 {
			fld, err = lossycorr.GenerateGaussian3D(lossycorr.Gaussian3DParams{
				Nz: d3[0], Ny: d3[1], Nx: d3[2], Range: *rang, Seed: *seed,
			})
		} else if len(d3) != 0 {
			return fmt.Errorf("-dims wants 3 extents (nz,ny,nx), got %d", len(d3))
		} else {
			fld, err = lossycorr.GenerateGaussian(lossycorr.GaussianParams{
				Rows: *rows, Cols: *cols, Range: *rang, Seed: *seed,
			})
		}
	case "multi":
		var rs []float64
		for _, tok := range strings.Split(*ranges, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%g", &v); err != nil {
				return fmt.Errorf("bad -ranges entry %q", tok)
			}
			rs = append(rs, v)
		}
		fld, err = lossycorr.GenerateMultiGaussian(lossycorr.MultiGaussianParams{
			Rows: *rows, Cols: *cols, Ranges: rs, Seed: *seed,
		})
	case "turbulence":
		var slices []*lossycorr.Field
		slices, _, err = lossycorr.TurbulenceSlices(*rows, 1, 1.6, *seed)
		if err == nil {
			fld = slices[0]
		}
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if *f32 {
		err = fld.Narrow().WriteBinary(f)
	} else {
		err = fld.WriteBinary(f)
	}
	if err != nil {
		return err
	}
	if *pgm {
		if fld.NDim() != 2 {
			return fmt.Errorf("-pgm previews are 2D only")
		}
		p, err := os.Create(*out + ".pgm")
		if err != nil {
			return err
		}
		defer p.Close()
		if err := fld.WritePGM(p); err != nil {
			return err
		}
	}
	st := fld.Summary()
	fmt.Printf("wrote %s: %s min=%.4g max=%.4g var=%.4g\n",
		*out, shapeString(fld.Shape), st.Min, st.Max, st.Variance)
	return nil
}

func readField(path string) (*lossycorr.Field, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lossycorr.ReadField(f, 0)
}

// readFieldAny reads a field on whichever lane the file declares:
// exactly one return is non-nil. Local files are trusted, so the
// element budget only guards against corrupted headers.
func readFieldAny(path string) (*lossycorr.Field, *lossycorr.Field32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return lossycorr.ReadFieldAny(f, 1<<31)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "field.bin", "input field (2D or 3D)")
	window := fs.Int("window", 32, "local statistics window H")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	vfft := fs.Bool("vfft", false, "FFT exact engine for the global variogram scan (one real-input forward + inverse transform over the padded field)")
	f32 := fs.Bool("f32", false, "run the float32 compute lane (a float64 input is narrowed first; float32 files use it automatically)")
	membudget := fs.String("membudget", "", "out-of-core memory budget with optional k/m/g suffix (e.g. 64m); fields that do not fit are streamed in budget-sized tiles, bit-identical windowed statistics")
	statsSel := fs.String("stats", "", "comma-separated statistic kernels to compute (e.g. variogram,svd); empty = all registered")
	fs.Parse(args)

	sel := splitStatsFlag(*statsSel)
	var budget int64
	if *membudget != "" {
		var err error
		if budget, err = parseBytes(*membudget); err != nil {
			return fmt.Errorf("-membudget: %w", err)
		}
		if *f32 {
			return fmt.Errorf("-f32 cannot combine with -membudget: an out-of-core field runs on its stored lane")
		}
	}
	tr, err := lossycorr.OpenFieldTilesMapped(*in, 1<<31)
	if err != nil {
		return err
	}
	defer tr.Close()
	opts := lossycorr.AnalysisOptions{
		Window: *window, Workers: *workers, VariogramFFT: *vfft,
		MemBudget: budget, Stats: sel,
	}
	lossycorr.ResetTransformPeakBytes()
	var stats lossycorr.Statistics
	if *f32 && !tr.Float32Lane() {
		var wide *lossycorr.Field
		if wide, _, err = tr.ReadAll(); err != nil {
			return err
		}
		stats, err = lossycorr.AnalyzeField(context.Background(), wide.Narrow(), opts)
	} else {
		stats, err = lossycorr.AnalyzeReader(context.Background(), tr, opts)
	}
	if err != nil {
		return err
	}
	lane := "float64"
	if *f32 || tr.Float32Lane() {
		lane = "float32"
	}
	mode := ""
	if budget > 0 {
		mode = ", out-of-core"
	}
	fmt.Printf("field: %s (%s lane%s)\n", shapeString(tr.Shape()), lane, mode)
	printStats(stats, *window)
	if budget > 0 {
		// An out-of-core run reports the transform pool's observed peak
		// against its budget.
		peak := lossycorr.TransformPeakBytes()
		verdict := "ok"
		if peak > budget {
			verdict = "OVER"
		}
		fmt.Printf("peak transform bytes: %d (budget %d, %s)\n", peak, budget, verdict)
	}
	return nil
}

// splitStatsFlag turns the -stats flag value into a kernel selection
// (nil when the flag is unset, meaning all registered kernels).
func splitStatsFlag(v string) []string {
	if v == "" {
		return nil
	}
	var sel []string
	for _, part := range strings.Split(v, ",") {
		if name := strings.TrimSpace(part); name != "" {
			sel = append(sel, name)
		}
	}
	return sel
}

// printStats reports the computed statistics — only the ones actually
// present in the result set (a -stats subset computes no others), with
// any extra registered-kernel outputs after the paper's four.
func printStats(stats lossycorr.Statistics, window int) {
	if stats.Has(lossycorr.StatGlobalRange) {
		fmt.Printf("estimated global variogram range: %.4f\n", stats.GlobalRange())
	}
	if stats.Has(lossycorr.StatGlobalSill) {
		fmt.Printf("fitted sill:                      %.4f\n", stats.GlobalSill())
	}
	if stats.Has(lossycorr.StatLocalRangeStd) {
		fmt.Printf("std of local variogram ranges:    %.4f (H=%d)\n", stats.LocalRangeStd(), window)
	}
	if stats.Has(lossycorr.StatLocalSVDStd) {
		fmt.Printf("std of local SVD truncation:      %.4f (H=%d)\n", stats.LocalSVDStd(), window)
	}
	builtin := map[string]bool{
		lossycorr.StatGlobalRange: true, lossycorr.StatGlobalSill: true,
		lossycorr.StatLocalRangeStd: true, lossycorr.StatLocalSVDStd: true,
	}
	var extra []string
	for k := range stats {
		if !builtin[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("%s: %.4f\n", k, stats[k])
	}
}

// parseBytes parses a byte count with an optional k/m/g suffix
// (powers of 1024, case-insensitive). Counts that overflow int64 are
// rejected rather than wrapped.
func parseBytes(s string) (int64, error) {
	in := s
	mult := int64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, s = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, s = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, s = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("byte count must be positive, got %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte count %q overflows int64", in)
	}
	return v * mult, nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "field.bin", "input field (2D or 3D)")
	codec := fs.String("codec", "", "compressor name (default: first codec of the input's rank)")
	eb := fs.Float64("eb", 1e-3, "absolute error bound")
	fs.Parse(args)

	fld, n32, err := readFieldAny(*in)
	if err != nil {
		return err
	}
	if n32 != nil {
		return compressOne(n32, *codec, *eb)
	}
	return compressOne(fld, *codec, *eb)
}

// compressOne prints the measurement of f on its own lane under the
// named codec; an empty name means sz-like for a 2D field (the
// historical default) and the first codec of f's rank otherwise.
func compressOne[T lossycorr.Elem](f *lossycorr.FieldOf[T], name string, eb float64) error {
	if name == "" {
		rank := f.NDim()
		if rank == 2 {
			name = "sz-like"
		} else {
			names := lossycorr.CompressorsFor(rank)
			if len(names) == 0 {
				return fmt.Errorf("no codecs for rank-%d fields", rank)
			}
			name = names[0]
		}
	}
	return measureAll(f, []string{name}, []float64{eb})
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	in := fs.String("in", "field.bin", "input field (2D or 3D)")
	fs.Parse(args)

	fld, n32, err := readFieldAny(*in)
	if err != nil {
		return err
	}
	if n32 != nil {
		return measureAll(n32, lossycorr.CompressorsFor(n32.NDim()), lossycorr.PaperErrorBounds)
	}
	return measureAll(fld, lossycorr.CompressorsFor(fld.NDim()), lossycorr.PaperErrorBounds)
}

// measureAll prints the measurement of f on its own lane under every
// named codec at every bound.
func measureAll[T lossycorr.Elem](f *lossycorr.FieldOf[T], names []string, ebs []float64) error {
	for _, name := range names {
		for _, eb := range ebs {
			res, err := lossycorr.MeasureField(context.Background(), name, f, eb)
			if err != nil {
				return err
			}
			printResult(res)
		}
	}
	return nil
}

func printResult(res lossycorr.Result) {
	fmt.Printf("%-11s eb=%.0e ratio=%8.3f bytes=%d maxErr=%.3e psnr=%.1fdB bound=%v\n",
		res.Compressor, res.ErrorBound, res.Ratio, res.CompressedSize,
		res.MaxAbsError, res.PSNR, res.BoundOK)
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	size := fs.Int("size", 0, fmt.Sprintf("training field edge (0 = %d for 2D, %d for 3D)",
		lossycorr.DefaultTrainEdge2D, lossycorr.DefaultTrainEdge3D))
	train := fs.Int("train", lossycorr.DefaultTrainFields, "number of training ranges")
	ndim := fs.Int("ndim", 0, "training rank: 2 or 3 (0 = follow -in, else 2)")
	eb := fs.Float64("eb", 1e-3, "error bound for selection")
	seed := fs.Uint64("seed", 1, "seed")
	in := fs.String("in", "", "optional field (2D or 3D) to select a compressor for")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	folds := fs.Int("folds", 0, "cross-validation folds (0 = 5, negative disables)")
	save := fs.String("save", "", "write the trained model as versioned JSON to this path")
	load := fs.String("load", "", "serve from a saved model instead of training")
	fs.Parse(args)

	if *load != "" && *save != "" {
		return fmt.Errorf("-load and -save are mutually exclusive (a loaded model is already saved)")
	}

	var target *lossycorr.Field
	var err error
	if *in != "" {
		if target, err = readField(*in); err != nil {
			return err
		}
	}
	rank := *ndim
	if rank == 0 {
		rank = 2
		if target != nil {
			rank = target.NDim()
		}
	}
	if rank != 2 && rank != 3 {
		return fmt.Errorf("-ndim must be 2 or 3, got %d", rank)
	}
	if target != nil && target.NDim() != rank {
		return fmt.Errorf("-in is rank %d but -ndim asked for %d", target.NDim(), rank)
	}
	var p *lossycorr.Predictor
	var fields []*lossycorr.Field
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		p, err = lossycorr.LoadPredictor(f)
		f.Close()
		if err != nil {
			return err
		}
		prov := p.Provenance()
		if prov.Rank != 0 && target != nil && prov.Rank != rank {
			return fmt.Errorf("model %s was trained on rank %d fields, -in is rank %d", *load, prov.Rank, rank)
		}
		fmt.Printf("loaded model %s (source %s, %d measurements)\n", *load, prov.Source, prov.Measurements)
	} else {
		p, fields, err = lossycorr.TrainRangeLadder(context.Background(), lossycorr.TrainConfig{
			Rank: rank, Fields: *train, Edge: *size, Seed: *seed,
			ErrorBound: *eb, Folds: *folds, Workers: *workers,
		})
		if err != nil {
			return err
		}
	}

	fmt.Println("models:", strings.Join(p.Models(), " "))
	// Models() renders bounds with %g, which ParseFloat inverts exactly,
	// so the listing doubles as the CV lookup key.
	for _, name := range p.Models() {
		at := strings.LastIndex(name, "@")
		bound, err := strconv.ParseFloat(name[at+1:], 64)
		if err != nil {
			continue
		}
		if cv, ok := p.CV(name[:at], bound); ok {
			fmt.Printf("  %s: %s\n", name, cv)
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := lossycorr.SavePredictor(f, p); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", *save)
	}

	if target == nil {
		if len(fields) == 0 {
			return nil // -load without -in: model inspection only
		}
		target = fields[len(fields)-1]
	}
	stats, err := lossycorr.AnalyzeField(context.Background(), target, lossycorr.AnalysisOptions{SkipLocal: true})
	if err != nil {
		return err
	}
	sel, err := p.SelectCompressor(*eb, stats)
	if err != nil {
		return err
	}
	pred, err := p.PredictRatioInterval(sel.Compressor, *eb, stats, 0)
	if err != nil {
		return err
	}
	fmt.Printf("estimated range %.3f → selected %s (predicted CR %.2f [%.2f, %.2f] at %g%% PI)\n",
		stats.GlobalRange(), sel.Compressor, pred.Ratio, pred.Lo, pred.Hi, pred.Level*100)
	res, err := lossycorr.MeasureField(context.Background(), sel.Compressor, target, *eb)
	if err != nil {
		return err
	}
	fmt.Printf("actual CR with %s: %.2f\n", sel.Compressor, res.Ratio)
	return nil
}
