//go:build !amd64

package variogram

// useAVX2 is false off amd64, where the lockstep scan runs laneRow
// once per lane group.
var useAVX2 = false

// laneRow2 has no implementation here; exactScanLanes hands
// scanOffsetLanes two lane groups only when useAVX2 is set.
func laneRow2(x0, y0, x1, y1 *[4]float64, n int, s *[8]float64) {
	panic("variogram: laneRow2 without AVX2")
}
