//go:build race

package service

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the values put back.
const raceEnabled = true
