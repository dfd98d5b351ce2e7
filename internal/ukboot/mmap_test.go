//go:build linux && !race

package ukboot

import (
	"runtime"
	"testing"

	"unikraft/internal/sim"
)

// TestColdBootGoBytes: a 64 MB nginx guest's first boot through a new
// Context — the one that makes its heap arena — costs under 1 MB of Go
// heap, because the arena is memory the OS maps, not a Go slice the
// size of the heap. (Under the race detector the arena is a Go slice.)
func TestColdBootGoBytes(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := ctx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	vm.Close()
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewContext and the first Boot of a 64 MB guest allocated %d B of Go heap, want < 1 MB", got)
	}
}
