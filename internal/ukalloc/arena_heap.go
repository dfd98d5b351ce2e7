//go:build !linux || race

package ukalloc

// arenaMem makes the arena a Go slice: off Linux, and under the race
// detector, which does not instrument mapped memory.
func arenaMem(_ *Arena, n int) []byte { return make([]byte, n) }
