package ukboot

import (
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
)

// BenchmarkBoot measures the full cold-boot pipeline through a reusable
// Context — the pool's cold-start path before snapshot forking.
// ReportAllocs guards the precomputed-step design: a boot should cost a
// handful of allocations (VM, page table, allocator state), not
// per-step closures or map lookups, and B/op stays far below the heap
// size because the arena of the VM closed in the previous iteration is
// the one this boot takes (TestBootSteadyStateBytes gates both).
func BenchmarkBoot(b *testing.B) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var virtUS float64
	for i := 0; i < b.N; i++ {
		vm, err := ctx.Boot(sim.NewMachine())
		if err != nil {
			b.Fatal(err)
		}
		virtUS = float64(vm.Report.Total().Microseconds())
		vm.Close()
	}
	b.ReportMetric(virtUS, "virt-boot-us")
}

// BenchmarkForkBoot measures snapshot-fork instantiation: one template
// snapshot amortized over the run, one COW fork per iteration. The
// simulated cost (virt-boot-us) must sit far below BenchmarkBoot's,
// and allocs/op and B/op below the full pipeline's. Each clone still
// owns a real private arena — the simulation models guest-side COW, not
// host-side arena sharing — but takes it, scrubbed, from the context's
// free list.
func BenchmarkForkBoot(b *testing.B) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var virtUS float64
	for i := 0; i < b.N; i++ {
		vm, err := ctx.Fork(sim.NewMachine(), snap)
		if err != nil {
			b.Fatal(err)
		}
		virtUS = float64(vm.Report.Total().Microseconds())
		vm.Close()
	}
	b.ReportMetric(virtUS, "virt-boot-us")
}
