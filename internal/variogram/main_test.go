package variogram

import (
	"flag"
	"os"
	"testing"

	"lossycorr/internal/cpufeat"
)

var perLine = flag.Bool("perline", false,
	"run with cpufeat.AVX2 cleared: the FFT's per-line transforms and the Go laneRows, to time them against the AVX2 kernels")

func TestMain(m *testing.M) {
	flag.Parse()
	if *perLine {
		cpufeat.AVX2 = false
	}
	os.Exit(m.Run())
}
