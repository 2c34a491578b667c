//go:build race

package main

// raceEnabled relaxes TestSmoke's time limit: the race detector slows
// the harness several times over.
const raceEnabled = true
