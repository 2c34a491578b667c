package compress

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"lossycorr/internal/field"
)

// no32 stands in for the float32 lane of test codecs that never run it.
type no32 struct{ FieldCompressor }

// roundingCompressor is a trivial rank-2 test codec: rounds to
// multiples of eb and stores everything verbatim.
type roundingCompressor struct {
	no32
	name string
}

func (c roundingCompressor) Name() string { return c.name }
func (c roundingCompressor) Ranks() []int { return []int{2} }

func (c roundingCompressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	var buf bytes.Buffer
	q := f.Clone()
	for i, v := range q.Data {
		q.Data[i] = math.Round(v/absErr) * absErr
	}
	if err := q.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c roundingCompressor) DecompressField(data []byte) (*field.Field, error) {
	return field.ReadBinary(bytes.NewReader(data))
}

// brokenCompressor violates its bound.
type brokenCompressor struct{ roundingCompressor }

func (c brokenCompressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	return c.roundingCompressor.CompressField(f, absErr*100)
}

func testField() *field.Field {
	f := field.New(16, 16)
	for r := range 16 {
		for c := range 16 {
			f.Set(math.Sin(float64(r)/3)*math.Cos(float64(c)/5), r, c)
		}
	}
	return f
}

func TestRunMetrics(t *testing.T) {
	res, err := RunField(roundingCompressor{name: "round"}, testField(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK {
		t.Fatalf("bound violated: %+v", res)
	}
	if res.MaxAbsError > 0.005+1e-12 {
		t.Fatalf("rounding error %v above half bin", res.MaxAbsError)
	}
	if res.OriginalSize != 16*16*8 {
		t.Fatalf("original size %d", res.OriginalSize)
	}
	if res.Ratio <= 0 {
		t.Fatalf("ratio %v", res.Ratio)
	}
	if res.PSNR < 40 {
		t.Fatalf("PSNR %v unexpectedly low", res.PSNR)
	}
	if res.Compressor != "round" || res.ErrorBound != 0.01 {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestRunDetectsBoundViolation(t *testing.T) {
	res, err := RunField(brokenCompressor{roundingCompressor{name: "broken"}}, testField(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundOK {
		t.Fatal("violation not detected")
	}
}

func TestRunRejectsBadBound(t *testing.T) {
	if _, err := RunField(roundingCompressor{name: "r"}, testField(), 0); err == nil {
		t.Fatal("expected error for eb=0")
	}
	if _, err := RunField(roundingCompressor{name: "r"}, testField(), -1); err == nil {
		t.Fatal("expected error for eb<0")
	}
	if _, err := RunField(roundingCompressor{name: "r"}, testField().Narrow(), 0); err == nil {
		t.Fatal("expected error for eb=0 on the float32 lane")
	}
	for _, eb := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RunField(roundingCompressor{name: "r"}, testField(), eb); err == nil {
			t.Fatalf("expected error for eb=%v", eb)
		}
		if _, err := RunField(roundingCompressor{name: "r"}, testField().Narrow(), eb); err == nil {
			t.Fatalf("expected error for eb=%v on the float32 lane", eb)
		}
	}
}

func TestPSNR(t *testing.T) {
	f := testField()
	if !math.IsInf(PSNRField(f, 0), 1) {
		t.Fatal("zero MSE should give +Inf PSNR")
	}
	vr := f.Summary().ValueRange
	// mse = vr² gives 0 dB
	if p := PSNRField(f, vr*vr); math.Abs(p) > 1e-9 {
		t.Fatalf("PSNR(vr²)=%v want 0", p)
	}
	if p := PSNRField(field.New(4, 4), 1); p != 0 {
		t.Fatalf("constant-field PSNR %v", p)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterField(roundingCompressor{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterField(roundingCompressor{name: "a"}); err == nil {
		t.Fatal("duplicate registration must error")
	}
	if err := r.RegisterField(roundingCompressor{name: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetField("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetField("zzz"); err == nil {
		t.Fatal("unknown lookup must error")
	}
	names := r.NamesFor(0)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	all := r.AllFor(2)
	if len(all) != 2 || all[0].Name() != "a" {
		t.Fatalf("AllFor(2) wrong order")
	}
}

// TestRankNames pins the rank a codec value serves and the name it
// registers there: the zero value and 2 serve rank 2 under the base
// name, 3 serves volumes as base-3d, and any other rank panics.
func TestRankNames(t *testing.T) {
	for _, tc := range []struct {
		r    Rank
		rank int
		name string
	}{{0, 2, "c"}, {2, 2, "c"}, {3, 3, "c-3d"}} {
		if got := tc.r.Ranks(); len(got) != 1 || got[0] != tc.rank {
			t.Errorf("Rank(%d).Ranks() = %v, want [%d]", tc.r, got, tc.rank)
		}
		if got := tc.r.Named("c"); got != tc.name {
			t.Errorf("Rank(%d).Named = %q, want %q", tc.r, got, tc.name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rank(4) served a rank")
		}
	}()
	Rank(4).N()
}

func TestRunRelative(t *testing.T) {
	f := testField() // value range ~2
	vr := f.Summary().ValueRange
	res, err := RunRelativeField(roundingCompressor{name: "round"}, f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != 1e-2*vr {
		t.Fatalf("absolute bound %v want %v", res.ErrorBound, 1e-2*vr)
	}
	if !res.BoundOK {
		t.Fatalf("bound violated: %+v", res)
	}
	// constant field falls back to the relative value as absolute
	res, err = RunRelativeField(roundingCompressor{name: "round"}, field.New(4, 4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != 0.5 {
		t.Fatalf("constant-field bound %v", res.ErrorBound)
	}
	if _, err := RunRelativeField(roundingCompressor{name: "round"}, f, 0); err == nil {
		t.Fatal("expected error for rel=0")
	}
}

func TestPaperErrorBounds(t *testing.T) {
	want := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	if len(PaperErrorBounds) != len(want) {
		t.Fatalf("bounds %v", PaperErrorBounds)
	}
	for i := range want {
		if PaperErrorBounds[i] != want[i] {
			t.Fatalf("bounds %v", PaperErrorBounds)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	if _, err := RunField(failingCompressor{}, testField(), 1e-3); !errors.Is(err, errBoom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := RunField(failingCompressor{}, testField().Narrow(), 1e-3); !errors.Is(err, errBoom) {
		t.Fatalf("float32 lane error not propagated: %v", err)
	}
}

var errBoom = errors.New("boom")

type failingCompressor struct{}

func (failingCompressor) Name() string { return "fail" }
func (failingCompressor) Ranks() []int { return []int{2} }
func (failingCompressor) CompressField(*field.Field, float64) ([]byte, error) {
	return nil, errBoom
}
func (failingCompressor) DecompressField([]byte) (*field.Field, error) { return nil, errBoom }
func (failingCompressor) CompressField32(*field.Field32, float64) ([]byte, error) {
	return nil, errBoom
}
func (failingCompressor) DecompressField32([]byte) (*field.Field32, error) { return nil, errBoom }
