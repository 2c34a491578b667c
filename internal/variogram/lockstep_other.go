//go:build !amd64

package variogram

// laneRows2 has no implementation here; exactScanLanes hands
// scanOffsetLanes two lane groups only when cpufeat.AVX2 is set, which
// it never is off amd64.
func laneRows2(x0, y0, x1, y1 *[4]float64, g rowGrid, s *[8]float64) {
	panic("variogram: laneRows2 without AVX2")
}
