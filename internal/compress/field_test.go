package compress

import (
	"fmt"
	"testing"

	"lossycorr/internal/field"
)

// stub is a shape-only codec of one rank for registry dispatch tests.
type stub struct {
	name string
	rank int
	no32
}

func (s stub) Name() string { return s.name }
func (s stub) Ranks() []int { return []int{s.rank} }
func (s stub) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	out := make([]byte, len(f.Shape))
	for k, n := range f.Shape {
		out[k] = byte(n)
	}
	return out, nil
}
func (s stub) DecompressField(data []byte) (*field.Field, error) {
	shape := make([]int, len(data))
	for k, b := range data {
		shape[k] = int(b)
	}
	return field.New(shape...), nil
}

func TestRegistryRankDispatch(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterField(stub{name: "flat", rank: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterField(stub{name: "deep", rank: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterField(stub{name: "deep", rank: 3}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := r.RegisterField(stub{name: "deep", rank: 2}); err == nil {
		t.Fatal("expected duplicate error between 2D and 3D names")
	}

	if got := r.NamesFor(2); len(got) != 1 || got[0] != "flat" {
		t.Fatalf("NamesFor(2) = %v", got)
	}
	if got := r.NamesFor(3); len(got) != 1 || got[0] != "deep" {
		t.Fatalf("NamesFor(3) = %v", got)
	}
	if got := r.NamesFor(0); len(got) != 2 {
		t.Fatalf("NamesFor(0) = %v", got)
	}

	if _, err := r.GetFor("flat", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetFor("flat", 3); err == nil {
		t.Fatal("2D codec must reject rank-3 lookup")
	}
	if _, err := r.GetFor("deep", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetFor("missing", 2); err == nil {
		t.Fatal("expected unknown-codec error")
	}
	if got := len(r.AllFor(3)); got != 1 {
		t.Fatalf("AllFor(3) has %d codecs", got)
	}
}

// boundedVol is a real (if silly) rank-3 codec: it stores the volume
// verbatim, so every bound holds.
type boundedVol struct{}

func (boundedVol) Name() string { return "raw-3d" }
func (boundedVol) Ranks() []int { return []int{3} }
func (boundedVol) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	out := []byte{byte(f.Shape[0]), byte(f.Shape[1]), byte(f.Shape[2])}
	for _, val := range f.Data {
		out = append(out, fmt.Sprintf("%016x", uint64(val*1000))...)
	}
	return out, nil
}
func (boundedVol) DecompressField(data []byte) (*field.Field, error) {
	f := field.New(int(data[0]), int(data[1]), int(data[2]))
	pos := 3
	for i := range f.Data {
		var u uint64
		fmt.Sscanf(string(data[pos:pos+16]), "%016x", &u)
		f.Data[i] = float64(u) / 1000
		pos += 16
	}
	return f, nil
}
func (b boundedVol) CompressField32(f *field.Field32, absErr float64) ([]byte, error) {
	return b.CompressField(f.Widen(), absErr)
}
func (b boundedVol) DecompressField32(data []byte) (*field.Field32, error) {
	f, err := b.DecompressField(data)
	if err != nil {
		return nil, err
	}
	return f.Narrow(), nil
}

func TestRunFieldVolume(t *testing.T) {
	f := field.New(2, 3, 4)
	for i := range f.Data {
		f.Data[i] = float64(i) / 8
	}
	res, err := RunField(boundedVol{}, f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK || res.Compressor != "raw-3d" || res.OriginalSize != 24*8 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.MaxAbsError > 1e-3 {
		t.Fatalf("max error %v", res.MaxAbsError)
	}
	// The float32 lane is measured against the float32 samples.
	res, err = RunField(boundedVol{}, f.Narrow(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK || res.OriginalSize != 24*4 {
		t.Fatalf("unexpected float32 result %+v", res)
	}
}
