package bootalloc

import (
	"testing"

	"unikraft/internal/allocators/alloctest"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func mk(heap int) ukalloc.Allocator {
	a := newAllocator(sim.NewMachine())
	if err := a.Init(ukalloc.NewArena(heap)); err != nil {
		panic(err)
	}
	return a
}

func TestConformance(t *testing.T) {
	alloctest.Run(t, "bootalloc", mk, alloctest.Caps{Reclaims: false})
}

// TestBumpNeverReuses: a region allocator must never hand out the same
// byte twice, even across frees.
func TestBumpNeverReuses(t *testing.T) {
	a := mk(1 << 20)
	seen := map[ukalloc.Ptr]bool{}
	var max ukalloc.Ptr
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("pointer %d returned twice", p)
		}
		if p <= max {
			t.Fatalf("pointer %d not monotonically increasing (max %d)", p, max)
		}
		seen[p], max = true, p
		if err := a.Free(p); err != nil { // free is accepted but a no-op
			t.Fatal(err)
		}
	}
}

// TestInitCostIsTiny: bootalloc exists for Fig 14's fastest-boot story;
// its init must charge orders of magnitude less than buddy's per-frame
// walk would for the same heap.
func TestInitCostIsTiny(t *testing.T) {
	var total uint64
	a := newAllocator(sinkFunc(func(c uint64) { total += c }))
	if err := a.Init(ukalloc.NewArena(1 << 30)); err != nil {
		t.Fatal(err)
	}
	if total > 10_000 {
		t.Errorf("bootalloc init charged %d cycles for 1GiB; want trivial cost", total)
	}
}

func TestExhaustion(t *testing.T) {
	a := mk(4 << 10)
	var got int
	for {
		_, err := a.Malloc(256)
		if err != nil {
			break
		}
		got++
	}
	if got == 0 || got > 16 {
		t.Fatalf("allocated %d 256B blocks from 4KiB heap; want a small positive count", got)
	}
	if a.Stats().Failures == 0 {
		t.Error("no failure recorded at exhaustion")
	}
}

type sinkFunc func(uint64)

func (f sinkFunc) Pay(id sim.CostID, n uint64) { f(sim.Cycles(id, n)) }
