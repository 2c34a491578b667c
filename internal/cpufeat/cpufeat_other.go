//go:build !amd64

package cpufeat

// hasAVX2 is false off amd64: there is no package assembly to run.
func hasAVX2() bool { return false }
