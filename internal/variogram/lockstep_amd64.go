package variogram

// laneRow2 is laneRow over two lane groups at once: for each of the n
// elements it folds (x − y)² of group 0's pair (x0[i], y0[i]) into
// s[0:4] and group 1's pair (x1[i], y1[i]) into s[4:8], lane by lane.
// Each lane does one subtract, one rounded multiply and one add per
// pair, in index order, so every lane's chain is bitwise laneRow's.
// It needs AVX2 (cpufeat.AVX2).
//
//go:noescape
func laneRow2(x0, y0, x1, y1 *[4]float64, n int, s *[8]float64)
