//go:build race || !linux

package experiments

// Guest heaps are Go slices in this build (see inflight).
func init() { inflight = make(chan struct{}, 2) }
