package stat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"lossycorr/internal/field"
)

// winKernel is a WindowKernel whose window value is the window's first
// element; Fold returns the values' sum, or foldN copies of it.
type winKernel struct {
	name    string
	evalErr error
	foldN   int // number of values Fold returns; 0 means 1
}

func (k winKernel) Name() string            { return k.name }
func (k winKernel) Outputs() []string       { return []string{k.name} }
func (k winKernel) Caps() Caps              { return Caps{Windowed: true, Streaming: true} }
func (k winKernel) CheckWindow(h int) error { return nil }

func (k winKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error {
	if k.evalErr != nil {
		return k.evalErr
	}
	for i, w := range ws {
		vals[i], keep[i] = w.Data[0], true
	}
	return nil
}

func (k winKernel) Fold(vals []float64, info FoldInfo, opt any) ([]float64, error) {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	out := make([]float64, max(k.foldN, 1))
	for i := range out {
		out[i] = sum
	}
	return out, nil
}

// globalKernel is a GlobalKernel returning fixed values or a fixed
// error.
type globalKernel struct {
	name string
	out  []float64
	err  error
}

func (k globalKernel) Name() string      { return k.name }
func (k globalKernel) Outputs() []string { return []string{k.name} }
func (k globalKernel) Caps() Caps        { return Caps{Streaming: true} }

func (k globalKernel) EvalGlobal(ctx context.Context, src Source, req Request, opt any) ([]float64, error) {
	return k.out, k.err
}

// labeledKernel is a globalKernel with its own error label.
type labeledKernel struct{ globalKernel }

func (labeledKernel) ErrLabel() string { return "custom label" }

// bareKernel implements Kernel but neither evaluation interface.
type bareKernel struct{}

func (bareKernel) Name() string      { return "bare" }
func (bareKernel) Outputs() []string { return []string{"bare"} }
func (bareKernel) Caps() Caps        { return Caps{} }

// iota64 is a field whose element i holds i.
func iota64(shape ...int) *field.Field {
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	return f
}

// readerOf serializes f and opens it as an out-of-core source.
func readerOf(t *testing.T, f *field.Field) *field.TileReader {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := field.NewTileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSourceShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  Source
		want []int
	}{
		{"F64", Source{F64: field.New(3, 4)}, []int{3, 4}},
		{"F32", Source{F32: field.New32(2, 5, 6)}, []int{2, 5, 6}},
		{"Reader", Source{Reader: readerOf(t, field.New(7, 9))}, []int{7, 9}},
		{"empty", Source{}, nil},
	} {
		if got := tc.src.Shape(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Shape() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEmptySource(t *testing.T) {
	ctx := context.Background()
	k := winKernel{name: "w"}
	if _, err := Windows(ctx, Source{}, k, 2, 1, nil, nil); err == nil || !strings.Contains(err.Error(), "empty source") {
		t.Errorf("Windows: err %v, want an empty-source error", err)
	}
	_, err := Run(ctx, Source{}, []Kernel{k}, Request{Window: 2, Workers: 1})
	if err == nil || !strings.HasPrefix(err.Error(), "w: ") || !strings.Contains(err.Error(), "empty source") {
		t.Errorf("Run: err %v, want a labeled empty-source error", err)
	}
}

// TestWindowsSelection pins the selection contract on both source
// kinds: values come back in sel order, and an index outside the
// window lattice is an error, not a panic.
func TestWindowsSelection(t *testing.T) {
	ctx := context.Background()
	f := iota64(4, 4) // four 2×2 windows with origins 0, 2, 8, 10
	k := winKernel{name: "w"}
	for _, src := range []Source{{F64: f}, {Reader: readerOf(t, f)}} {
		got, err := Windows(ctx, src, k, 2, 2, []int{3, 0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{10, 0, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("streaming=%v: selected values %v, want %v", src.Reader != nil, got, want)
		}
		for _, bad := range [][]int{{0, 4}, {-1}} {
			_, err := Windows(ctx, src, k, 2, 2, bad, nil)
			if err == nil || !strings.Contains(err.Error(), "outside 4 windows") {
				t.Errorf("streaming=%v sel %v: err %v, want an out-of-range error", src.Reader != nil, bad, err)
			}
		}
	}
}

func TestRunRejectsBareKernel(t *testing.T) {
	_, err := Run(context.Background(), Source{F64: iota64(4, 4)}, []Kernel{bareKernel{}}, Request{Window: 2})
	if err == nil || !strings.HasPrefix(err.Error(), "bare: ") || !strings.Contains(err.Error(), "implements neither") {
		t.Errorf("Run: err %v, want a labeled implements-neither error", err)
	}
	if err := Register(bareKernel{}); err == nil {
		t.Error("Register accepted a kernel that implements neither interface")
	}
}

func TestRunResults(t *testing.T) {
	f := iota64(4, 4)
	for _, src := range []Source{{F64: f}, {Reader: readerOf(t, f)}} {
		res, err := Run(context.Background(), src,
			[]Kernel{globalKernel{name: "g", out: []float64{1.5}}, winKernel{name: "w"}},
			Request{Window: 2, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]float64{"g": 1.5, "w": 0 + 2 + 8 + 10}; !reflect.DeepEqual(res, want) {
			t.Errorf("streaming=%v: results %v, want %v", src.Reader != nil, res, want)
		}
	}
}

// TestRunErrorPrecedence pins how Run reports failures: the first
// failing kernel in kernel order wins at any worker count and on
// either source kind, its message carries the kernel's ErrLabel (its
// Name when it has none), and a dead context dominates every kernel
// error.
func TestRunErrorPrecedence(t *testing.T) {
	f := iota64(8, 8)
	ok := globalKernel{name: "ok", out: []float64{1}}
	failG := labeledKernel{globalKernel{name: "g", err: errors.New("global broke")}}
	failW := winKernel{name: "w", evalErr: errors.New("window broke")}
	// Two window kernels of one sweep on the 2-windows of the 8×8 iota
	// field: a fails at window 10 (element 36), b at window 1 (element 2).
	failA := namedBatch{batchKernel{fail: map[float64]bool{36: true}, maxBatch: new(atomic.Int64)}, "a"}
	failB := namedBatch{batchKernel{fail: map[float64]bool{2: true}, maxBatch: new(atomic.Int64)}, "b"}
	for _, tc := range []struct {
		kernels []Kernel
		want    string
	}{
		{[]Kernel{ok, failG, failW}, "custom label: global broke"},
		{[]Kernel{ok, failW, failG}, "w: window broke"},
		{[]Kernel{ok, failA, failB}, "a: window at element 36 failed"},
		{[]Kernel{failA, failG, failB}, "a: window at element 36 failed"},
		// b fails in the sweep, which runs first; g's lower index wins.
		{[]Kernel{winKernel{name: "v"}, failG, failB}, "custom label: global broke"},
	} {
		for _, src := range []Source{{F64: f}, {Reader: readerOf(t, f)}} {
			for _, workers := range []int{1, 4} {
				for rep := 0; rep < 5; rep++ {
					_, err := Run(context.Background(), src, tc.kernels, Request{Window: 2, Workers: workers})
					if err == nil || err.Error() != tc.want {
						t.Fatalf("streaming=%v workers=%d: err %v, want %q", src.Reader != nil, workers, err, tc.want)
					}
				}
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []Source{{F64: f}, {Reader: readerOf(t, f)}} {
		_, err := Run(ctx, src, []Kernel{failG, failW}, Request{Window: 2, Workers: 2})
		if !errors.Is(err, context.Canceled) || err != ctx.Err() {
			t.Errorf("streaming=%v: canceled run returned %v, want ctx.Err()", src.Reader != nil, err)
		}
	}
}

// TestRunOutputCountMismatch: a kernel whose evaluation returns a
// different number of values than Outputs() names is an error, for
// both kernel kinds.
func TestRunOutputCountMismatch(t *testing.T) {
	src := Source{F64: iota64(4, 4)}
	for _, tc := range []struct {
		k    Kernel
		want string
	}{
		{globalKernel{name: "g", out: []float64{1, 2}}, "g: kernel returned 2 values for 1 outputs"},
		{globalKernel{name: "g"}, "g: kernel returned 0 values for 1 outputs"},
		{winKernel{name: "w", foldN: 3}, "w: kernel returned 3 values for 1 outputs"},
	} {
		_, err := Run(context.Background(), src, []Kernel{tc.k}, Request{Window: 2})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.k.Name(), err, tc.want)
		}
	}
}

// batchKernel is a WindowKernel whose value is a position-weighted
// checksum of the whole window. It skips windows whose first element
// is a multiple of 7, fails on windows whose first element is in fail
// (naming that element), and records the largest batch it was handed.
type batchKernel struct {
	fail     map[float64]bool
	maxBatch *atomic.Int64
}

func (batchKernel) Name() string            { return "batch" }
func (batchKernel) Outputs() []string       { return []string{"batch"} }
func (batchKernel) Caps() Caps              { return Caps{Windowed: true, Streaming: true} }
func (batchKernel) CheckWindow(h int) error { return nil }

func (k batchKernel) EvalWindows(ws []*field.Field, vals []float64, keep []bool, opt any) error {
	for n := k.maxBatch.Load(); int64(len(ws)) > n && !k.maxBatch.CompareAndSwap(n, int64(len(ws))); n = k.maxBatch.Load() {
	}
	for i, w := range ws {
		first := w.Data[0]
		if k.fail[first] {
			return fmt.Errorf("window at element %v failed", first)
		}
		sum := float64(len(w.Shape))
		for j, v := range w.Data {
			sum += float64(j+1) * v
		}
		vals[i], keep[i] = sum, int(first)%7 != 0
	}
	return nil
}

func (batchKernel) Fold(vals []float64, info FoldInfo, opt any) ([]float64, error) {
	return vals, nil
}

// namedBatch is a batchKernel under its own name, so that several can
// share one Run.
type namedBatch struct {
	batchKernel
	name string
}

func (k namedBatch) Name() string      { return k.name }
func (k namedBatch) Outputs() []string { return []string{k.name} }

// iotaSources holds the iota field over shape as every source
// kind: float64, float32 (exact, the values are small integers), and a
// Reader under budget (0 means one tile).
func iotaSources(t *testing.T, budget int64, shape ...int) []Source {
	f := iota64(shape...)
	f32 := field.New32(shape...)
	for i, v := range f.Data {
		f32.Data[i] = float32(v)
	}
	return []Source{{F64: f}, {F32: f32}, {Reader: readerOf(t, f), Stream: field.StreamOptions{BudgetBytes: budget}}}
}

// oneByOne is the reference sweep: every selected window extracted and
// evaluated alone, kept values in sweep order.
func oneByOne(t *testing.T, k WindowKernel, f *field.Field, h int, sel []int) []float64 {
	t.Helper()
	origins := f.TileOrigins(h)
	if sel == nil {
		sel = make([]int, len(origins))
		for i := range sel {
			sel[i] = i
		}
	}
	var out []float64
	for _, g := range sel {
		var v [1]float64
		var keep [1]bool
		if err := k.EvalWindows([]*field.Field{f.Window(origins[g], h)}, v[:], keep[:], nil); err != nil {
			t.Fatal(err)
		}
		if keep[0] {
			out = append(out, v[0])
		}
	}
	return out
}

// TestWindowsBatchedMatchesOneByOne pins the batched sweep to the
// one-window-at-a-time reference on every source kind: at worker
// counts {1, 4, 8}, with Reader budgets whose tiles hold window counts
// that are not multiples of the batch width, and under a selection
// whose length is not a multiple of it. Batches never exceed
// BatchWidth, and full batches do occur.
func TestWindowsBatchedMatchesOneByOne(t *testing.T) {
	ctx := context.Background()
	const h = 3
	shape := []int{16, 20} // 6×7 = 42 windows, 2 of them clipped to 1 row
	f := iota64(shape...)
	sel := []int{41, 3, 17, 0, 22, 9, 30}
	var maxBatch atomic.Int64
	k := batchKernel{maxBatch: &maxBatch}
	for _, s := range [][]int{nil, sel} {
		want := oneByOne(t, k, f, h, s)
		for _, budget := range []int64{0, 16 * 3 * 9, 16 * 3 * 15} {
			for _, src := range iotaSources(t, budget, shape...) {
				for _, workers := range []int{1, 4, 8} {
					got, err := Windows(ctx, src, k, h, workers, s, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 || !slices.Equal(got, want) {
						t.Fatalf("sel %v streaming=%v budget %d workers %d: %v, want %v",
							s, src.Reader != nil, budget, workers, got, want)
					}
				}
			}
		}
	}
	if got := maxBatch.Load(); got != BatchWidth {
		t.Errorf("largest batch %d, want %d", got, BatchWidth)
	}
}

// TestWindowsLowestFailingWindow pins the sweep's error contract:
// when windows in several batches fail, the error of the lowest
// failing window (in sweep order: window order, or sel order) is
// returned at any worker count, just as when windows were evaluated
// one at a time.
func TestWindowsLowestFailingWindow(t *testing.T) {
	ctx := context.Background()
	const h = 2
	shape := []int{12, 10} // 6×5 = 30 windows, origin element 20·r + 2·c
	first := func(g int) float64 { return float64(20*(g/5) + 2*(g%5)) }
	var maxBatch atomic.Int64
	for _, tc := range []struct {
		sel    []int
		fail   []int // failing windows, by global index
		lowest int
	}{
		{nil, []int{27, 13, 6, 7}, 6},
		{nil, []int{29, 1}, 1},
		// sel order, not window order: window 25 sits at position 1.
		{[]int{8, 25, 2, 19, 4, 11, 0}, []int{2, 11, 25}, 25},
	} {
		k := batchKernel{fail: map[float64]bool{}, maxBatch: &maxBatch}
		for _, g := range tc.fail {
			k.fail[first(g)] = true
		}
		want := fmt.Sprintf("window at element %v failed", first(tc.lowest))
		srcs := iotaSources(t, 0, shape...)
		if tc.sel != nil {
			srcs = srcs[:2] // a Reader sweep reports in tile order
		}
		for _, src := range srcs {
			for _, workers := range []int{1, 4, 8} {
				for rep := 0; rep < 5; rep++ {
					_, err := Windows(ctx, src, k, h, workers, tc.sel, nil)
					if err == nil || err.Error() != want {
						t.Fatalf("fail %v sel %v streaming=%v workers %d: err %v, want %q",
							tc.fail, tc.sel, src.Reader != nil, workers, err, want)
					}
				}
			}
		}
	}
}

// TestWindowsTinyBudget: a positive budget below 16 bytes (half of it
// under one 8-byte element) is a budget of one element, not "no
// budget", so it fails to hold a window exactly as 16 bytes does.
func TestWindowsTinyBudget(t *testing.T) {
	ctx := context.Background()
	tr := readerOf(t, iota64(6, 6))
	for _, budget := range []int64{1, 8, 15, 16} {
		src := Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: budget}}
		_, err := Windows(ctx, src, winKernel{name: "w"}, 2, 1, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "cannot hold one 2-window") {
			t.Errorf("budget %d: err %v, want a cannot-hold-one-window error", budget, err)
		}
	}
	src := Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: 2 * 16 * 4}}
	if _, err := Windows(ctx, src, winKernel{name: "w"}, 2, 1, nil, nil); err != nil {
		t.Errorf("budget of two windows: %v", err)
	}
}

// TestWindowsNonPositiveEdge: a window edge below 1 that the kernel's
// CheckWindow lets through is the same error on every source kind, not
// a panic on the in-RAM lanes.
func TestWindowsNonPositiveEdge(t *testing.T) {
	ctx := context.Background()
	k := winKernel{name: "w"}
	for _, h := range []int{0, -1} {
		want := fmt.Sprintf("stream: non-positive window edge %d", h)
		for i, src := range iotaSources(t, 0, 4, 4) {
			if _, err := Windows(ctx, src, k, h, 2, nil, nil); err == nil || err.Error() != want {
				t.Errorf("source %d h=%d: Windows err %v, want %q", i, h, err, want)
			}
			if _, err := Run(ctx, src, []Kernel{k}, Request{Window: h}); err == nil || err.Error() != "w: "+want {
				t.Errorf("source %d h=%d: Run err %v, want %q", i, h, err, "w: "+want)
			}
		}
	}
}

// countingReaderAt counts the reads made through it.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// TestRunReadsEachTileOnce: the window kernels of a Run share one
// sweep, so a Reader source is read exactly as often for two window
// kernels as for one.
func TestRunReadsEachTileOnce(t *testing.T) {
	var buf bytes.Buffer
	if err := iota64(12, 12, 12).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cr := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
	tr, err := field.NewTileReader(cr, int64(buf.Len()), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Each tile holds one 4×12×12 layer of 4-windows: three tiles.
	src := Source{Reader: tr, Stream: field.StreamOptions{BudgetBytes: 16 * 4 * 12 * 12}}
	reads := func(kernels ...Kernel) int64 {
		before := cr.reads.Load()
		if _, err := Run(context.Background(), src, kernels, Request{Window: 4, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		return cr.reads.Load() - before
	}
	one := reads(winKernel{name: "a"})
	if one < 3 {
		t.Fatalf("one window kernel made %d reads, want at least one per tile", one)
	}
	if two := reads(winKernel{name: "a"}, winKernel{name: "b"}); two != one {
		t.Errorf("two window kernels made %d reads, one made %d", two, one)
	}
}

// TestWindowsRankNine: in-RAM sweeps have no rank limit (a field file,
// and so a Reader source, has rank at most 8).
func TestWindowsRankNine(t *testing.T) {
	shape := []int{3, 2, 2, 2, 2, 2, 2, 2, 3} // 2·1⁷·2 = 4 windows of edge 2, clipped on the outer axes
	k := batchKernel{maxBatch: new(atomic.Int64)}
	f := iota64(shape...)
	want := oneByOne(t, k, f, 2, nil)
	f32 := field.New32(shape...)
	for i, v := range f.Data {
		f32.Data[i] = float32(v)
	}
	for _, src := range []Source{{F64: f}, {F32: f32}} {
		got, err := Windows(context.Background(), src, k, 2, 2, nil, nil)
		if err != nil || len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("in-RAM rank 9: %v (err %v), want %v", got, err, want)
		}
	}
}
