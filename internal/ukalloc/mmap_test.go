//go:build linux && !race

package ukalloc_test

import (
	"runtime"
	"testing"
	"time"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukplat"
)

// TestArenaMappingsUnmapped boots and closes VMs through a boot
// context, drops the context, and checks that collecting it unmaps
// every arena it made: the count of live mappings rises by the arenas
// made and falls back to where it started.
func TestArenaMappingsUnmapped(t *testing.T) {
	// Cleanups run on their own goroutine after the collection that
	// finds their arenas unreachable; collect the arenas of earlier
	// tests until the count holds still.
	collect := func() {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	start := ukalloc.LiveMappings()
	for i := 0; i < 100; i++ {
		collect()
		if n := ukalloc.LiveMappings(); n == start {
			break
		} else {
			start = n
		}
	}
	made := func() int {
		ctx, err := ukboot.NewContext(ukboot.Config{
			Platform: ukplat.KVMFirecracker, MemBytes: 8 << 20, Allocator: "tlsf",
		})
		if err != nil {
			t.Fatal(err)
		}
		var vms []*ukboot.VM
		for i := 0; i < 3; i++ {
			vm, err := ctx.Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
		for _, vm := range vms {
			vm.Close()
		}
		vm, err := ctx.Boot(sim.NewMachine()) // takes a recycled arena
		if err != nil {
			t.Fatal(err)
		}
		vm.Close()
		fresh, free := ctx.Arenas()
		if fresh != 3 || free != 3 {
			t.Fatalf("context made %d arenas and holds %d, want 3 and 3", fresh, free)
		}
		if got := ukalloc.LiveMappings() - start; got < int64(fresh) {
			t.Fatalf("%d arenas made, %d new mappings", fresh, got)
		}
		return fresh
	}()
	for deadline := time.Now().Add(10 * time.Second); ukalloc.LiveMappings() > start; collect() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d arenas still mapped after their context was dropped", ukalloc.LiveMappings()-start, made)
		}
	}
}
