package buddy

import (
	"testing"
	"testing/quick"

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
	alloctest.Run(t, "buddy", mk, alloctest.Caps{Reclaims: true})
}

func TestOrderFor(t *testing.T) {
	cases := []struct{ n, order int }{
		{1, minOrder}, {16, minOrder}, {17, 6}, {48, 6}, {49, 7},
		{112, 7}, {113, 8}, {1000, 10}, {4080, 12}, {4081, 13},
	}
	for _, c := range cases {
		if got := orderFor(c.n); got != c.order {
			t.Errorf("orderFor(%d) = %d, want %d", c.n, got, c.order)
		}
	}
}

// TestCoalesceToSingleBlock verifies that after allocating the entire
// heap as minimum-size blocks and freeing them all, the free lists
// collapse back to the single maximal block.
func TestCoalesceToSingleBlock(t *testing.T) {
	a := newAllocator(sim.NewMachine())
	if err := a.Init(ukalloc.NewArena((1 << 16) + base)); err != nil {
		t.Fatal(err)
	}
	if got := a.freeListLengths(); len(got) != 1 || got[16] != 1 {
		t.Fatalf("initial free lists = %v, want {16:1}", got)
	}
	var ptrs []ukalloc.Ptr
	for {
		p, err := a.Malloc(16)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	if want := (1 << 16) / (1 << minOrder); len(ptrs) != want {
		t.Fatalf("allocated %d min blocks, want %d", len(ptrs), want)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.freeListLengths(); len(got) != 1 || got[16] != 1 {
		t.Fatalf("post-free lists = %v, want single order-16 block", got)
	}
}

// TestBuddyAddressInvariant property: every allocated payload's block is
// naturally aligned to its order within the region.
func TestBuddyAddressInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := newAllocator(sim.NewMachine())
		if err := a.Init(ukalloc.NewArena(1 << 20)); err != nil {
			return false
		}
		for _, s := range sizes {
			n := int(s)%4096 + 1
			p, err := a.Malloc(n)
			if err != nil {
				continue
			}
			blockOff := int(p) - headerSize - base
			order := orderFor(n)
			if blockOff%(1<<order) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBadPointer(t *testing.T) {
	a := mk(1 << 20).(*allocator)
	if err := a.Free(ukalloc.Ptr(12345)); err != ukalloc.ErrBadPointer {
		t.Errorf("Free(garbage) = %v, want ErrBadPointer", err)
	}
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != ukalloc.ErrBadPointer {
		t.Errorf("double Free = %v, want ErrBadPointer", err)
	}
}

func TestInitChargesPerFrame(t *testing.T) {
	var total uint64
	sink := sinkFunc(func(c uint64) { total += c })
	a := newAllocator(sink)
	if err := a.Init(ukalloc.NewArena(64 << 20)); err != nil {
		t.Fatal(err)
	}
	frames := uint64((32 << 20) / pageSize) // region = largest pow2 <= arena
	if want := sim.Cycles(sim.CostBuddyInitFrame, frames); total < want {
		t.Errorf("init charged %d cycles, want >= %d (per-frame model)", total, want)
	}
}

type sinkFunc func(uint64)

func (f sinkFunc) Pay(id sim.CostID, n uint64) { f(sim.Cycles(id, n)) }

// freeListLengths reports the number of free blocks per order, used by
// tests to verify coalescing restores the initial single maximal block.
func (a *allocator) freeListLengths() map[int]int {
	out := map[int]int{}
	for o := minOrder; o <= a.maxOrder; o++ {
		n := 0
		for off := a.free[o]; off != nilRef; off = a.linkNext(off) {
			n++
		}
		if n > 0 {
			out[o] = n
		}
	}
	return out
}
