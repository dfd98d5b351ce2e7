package tinyalloc

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
	alloctest.Run(t, "tinyalloc", mk, alloctest.Caps{Reclaims: true})
}

// TestCompaction verifies that freeing adjacent blocks merges them into
// one free-list entry and releases descriptors back to the fresh list.
func TestCompaction(t *testing.T) {
	a := mk(1 << 20).(*allocator)
	var ptrs []ukalloc.Ptr
	for i := 0; i < 8; i++ {
		p, err := a.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	used0, _, _ := a.listLengths()
	if used0 != 8 {
		t.Fatalf("used list = %d, want 8", used0)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	used, free, _ := a.listLengths()
	if used != 0 {
		t.Errorf("used list = %d after freeing all, want 0", used)
	}
	if free != 1 {
		t.Errorf("free list = %d entries after compaction, want 1 merged block", free)
	}
}

// TestReuseAfterCompaction: a merged free block must satisfy a request
// bigger than any individual freed block.
func TestReuseAfterCompaction(t *testing.T) {
	a := mk(1 << 20).(*allocator)
	var ptrs []ukalloc.Ptr
	for i := 0; i < 4; i++ {
		p, err := a.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	top0 := a.top
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	p, err := a.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if int(p) >= top0 {
		t.Errorf("Malloc(1024) carved fresh space at %d (top was %d); want reuse of merged block", p, top0)
	}
}

// TestFreeCostGrowsWithLiveSet demonstrates tinyalloc's characteristic
// degradation (the paper's Fig 16/18 effect): the used-list walk on free
// makes work grow with the number of live allocations.
func TestFreeCostGrowsWithLiveSet(t *testing.T) {
	measure := func(liveCount int) uint64 {
		var total uint64
		a := newAllocator(sinkFunc(func(c uint64) { total += c }))
		if err := a.Init(ukalloc.NewArena(32 << 20)); err != nil {
			t.Fatal(err)
		}
		ptrs := make([]ukalloc.Ptr, liveCount)
		for i := range ptrs {
			p, err := a.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[i] = p
		}
		total = 0
		// Free the oldest allocation: worst case for the MRU used list.
		if err := a.Free(ptrs[0]); err != nil {
			t.Fatal(err)
		}
		return total
	}
	small, large := measure(16), measure(4096)
	if large < small*8 {
		t.Errorf("free cost at 4096 live = %d, at 16 live = %d; expected linear growth", large, small)
	}
}

type sinkFunc func(uint64)

func (f sinkFunc) Pay(id sim.CostID, n uint64) { f(sim.Cycles(id, n)) }

// listLengths reports (used, free, fresh) list lengths for tests.
func (a *allocator) listLengths() (used, free, fresh int) {
	for i := a.used; i != nilRef; i = a.blocks[i].next {
		used++
	}
	for i := a.free; i != nilRef; i = a.blocks[i].next {
		free++
	}
	for i := a.fresh; i != nilRef; i = a.blocks[i].next {
		fresh++
	}
	return
}
