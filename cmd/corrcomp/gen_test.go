package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lossycorr"
)

// writeBytes returns what write emits into a buffer.
func writeBytes(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genFile runs corrcomp gen with args plus -out, returning the path.
func genFile(t *testing.T, args ...string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "f.bin")
	if err := cmdGen(append(args, "-out", out)); err != nil {
		t.Fatalf("gen %v: %v", args, err)
	}
	return out
}

// TestGenWritesGeneratorField checks that every gen mode writes exactly
// the generator's field in the binary format, and its PGM preview.
func TestGenWritesGeneratorField(t *testing.T) {
	g2, err := lossycorr.GenerateGaussian(lossycorr.GaussianParams{Rows: 24, Cols: 20, Range: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := lossycorr.GenerateGaussian3D(lossycorr.Gaussian3DParams{Nz: 6, Ny: 7, Nx: 8, Range: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := lossycorr.GenerateMultiGaussian(lossycorr.MultiGaussianParams{Rows: 24, Cols: 20, Ranges: []float64{2, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want []byte
	}{
		{"gaussian-2d", []string{"-rows", "24", "-cols", "20", "-range", "4", "-seed", "3"}, writeBytes(t, g2.WriteBinary)},
		{"gaussian-3d", []string{"-dims", "6,7,8", "-range", "2", "-seed", "3"}, writeBytes(t, g3.WriteBinary)},
		{"gaussian-3d-f32", []string{"-dims", "6,7,8", "-range", "2", "-seed", "3", "-f32"}, writeBytes(t, g3.Narrow().WriteBinary)},
		{"multi", []string{"-kind", "multi", "-rows", "24", "-cols", "20", "-ranges", "2,8", "-seed", "3"}, writeBytes(t, multi.WriteBinary)},
	} {
		got, err := os.ReadFile(genFile(t, tc.args...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: file differs from WriteBinary of the generator's field", tc.name)
		}
	}

	out := genFile(t, "-rows", "24", "-cols", "20", "-range", "4", "-seed", "3", "-pgm")
	got, err := os.ReadFile(out + ".pgm")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, writeBytes(t, g2.WritePGM)) {
		t.Error("-pgm preview differs from WritePGM of the generator's field")
	}
	err = cmdGen([]string{"-dims", "6,7,8", "-pgm", "-out", filepath.Join(t.TempDir(), "v.bin")})
	if err == nil || !strings.Contains(err.Error(), "2D only") {
		t.Errorf("-pgm on a volume: got %v, want a 2D-only error", err)
	}
}

// TestEntropyAndSampleOnVolume runs the entropy and sample subcommands
// over a 3D file: entropy works at any rank, and sample reports the
// sampled estimators' rank error instead of panicking.
func TestEntropyAndSampleOnVolume(t *testing.T) {
	in := genFile(t, "-dims", "16,16,16", "-range", "3", "-seed", "2")
	if err := cmdEntropy([]string{"-in", in}); err != nil {
		t.Fatalf("entropy on a volume: %v", err)
	}
	err := cmdSample([]string{"-in", in, "-window", "8"})
	if err == nil || !strings.Contains(err.Error(), "sampling: rank-3 field") {
		t.Fatalf("sample on a volume: got %v, want sampling's rank error", err)
	}
}
