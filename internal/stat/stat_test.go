package stat

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
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

func (k winKernel) EvalWindow(w *field.Field, opt any) (float64, bool, error) {
	if k.evalErr != nil {
		return 0, false, k.evalErr
	}
	return w.Data[0], true, nil
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
		name      string
		src       Source
		want      []int
		streaming bool
	}{
		{"F64", Source{F64: field.New(3, 4)}, []int{3, 4}, false},
		{"F32", Source{F32: field.New32(2, 5, 6)}, []int{2, 5, 6}, false},
		{"Reader", Source{Reader: readerOf(t, field.New(7, 9))}, []int{7, 9}, true},
		{"empty", Source{}, nil, false},
	} {
		if got := tc.src.Shape(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Shape() = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.src.Streaming(); got != tc.streaming {
			t.Errorf("%s: Streaming() = %v, want %v", tc.name, got, tc.streaming)
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
			t.Errorf("streaming=%v: selected values %v, want %v", src.Streaming(), got, want)
		}
		for _, bad := range [][]int{{0, 4}, {-1}} {
			_, err := Windows(ctx, src, k, 2, 2, bad, nil)
			if err == nil || !strings.Contains(err.Error(), "outside 4 windows") {
				t.Errorf("streaming=%v sel %v: err %v, want an out-of-range error", src.Streaming(), bad, err)
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
			t.Errorf("streaming=%v: results %v, want %v", src.Streaming(), res, want)
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
	for _, tc := range []struct {
		kernels []Kernel
		want    string
	}{
		{[]Kernel{ok, failG, failW}, "custom label: global broke"},
		{[]Kernel{ok, failW, failG}, "w: window broke"},
	} {
		for _, src := range []Source{{F64: f}, {Reader: readerOf(t, f)}} {
			for _, workers := range []int{1, 4} {
				for rep := 0; rep < 5; rep++ {
					_, err := Run(context.Background(), src, tc.kernels, Request{Window: 2, Workers: workers})
					if err == nil || err.Error() != tc.want {
						t.Fatalf("streaming=%v workers=%d: err %v, want %q", src.Streaming(), workers, err, tc.want)
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
			t.Errorf("streaming=%v: canceled run returned %v, want ctx.Err()", src.Streaming(), err)
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
