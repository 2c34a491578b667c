package variogram

// laneRows2 is laneRows over two lane groups at once: for every row of
// g (in laneRows' order) and each of its g.n elements, it folds
// (x − y)² of group 0's pair (x0[i], y0[i]) into s[0:4] and group 1's
// pair (x1[i], y1[i]) into s[4:8], lane by lane, where i runs over the
// row's elements relative to the four bases. Each lane does one
// subtract, one rounded multiply and one add per pair, in that order,
// so every lane's chain is bitwise laneRow's over the same rows. It
// needs AVX2 (cpufeat.AVX2).
//
//go:noescape
func laneRows2(x0, y0, x1, y1 *[4]float64, g rowGrid, s *[8]float64)
