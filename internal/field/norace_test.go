//go:build !race

package field

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the values put back.
const raceEnabled = false
