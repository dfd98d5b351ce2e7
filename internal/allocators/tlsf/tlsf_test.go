package tlsf

import (
	"testing"
	"testing/quick"

	"unikraft/internal/allocators/alloctest"
	"unikraft/internal/ukalloc"
)

func mk(heap int) ukalloc.Allocator {
	a := New(nil)
	if err := a.Init(ukalloc.NewArena(heap)); err != nil {
		panic(err)
	}
	return a
}

func TestConformance(t *testing.T) {
	var cur *Alloc
	mkTracked := func(heap int) ukalloc.Allocator {
		cur = mk(heap).(*Alloc)
		return cur
	}
	alloctest.Run(t, "tlsf", mkTracked, alloctest.Caps{
		Reclaims:         true,
		CheckConsistency: func() error { return cur.CheckConsistency() },
	})
}

// TestMappingMonotone property: the (fl, sl) mapping must be monotone in
// size — a larger size never maps to a strictly smaller bin. This is the
// core TLSF invariant that makes mappingSearch sound.
func TestMappingMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int(a%(1<<30))+1, int(b%(1<<30))+1
		if x > y {
			x, y = y, x
		}
		flx, slx := mappingInsert(x)
		fly, sly := mappingInsert(y)
		if flx > fly {
			return false
		}
		if flx == fly && slx > sly {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestMappingSearchSufficient property: any block that mappingInsert
// files into the bin located by mappingSearch(size) is >= size.
func TestMappingSearchSufficient(t *testing.T) {
	f := func(req uint32) bool {
		size := int(req%(1<<24)) + 16
		fl, sl, rounded := mappingSearch(size)
		if rounded < size {
			return false
		}
		// The smallest block that maps into (fl, sl) must be >= size.
		// Reconstruct that lower bound from the bin coordinates.
		var lower int
		if fl == 0 {
			lower = sl << (flShift - slLog2)
		} else {
			f2 := fl + flShift - 1
			lower = (1 << f2) | (sl << (f2 - slLog2))
		}
		return lower >= size || lower >= rounded-(1<<(fl+flShift-1-slLog2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingSmallSizes(t *testing.T) {
	for size := 0; size < 256; size++ {
		fl, sl := mappingInsert(size)
		if fl != 0 {
			t.Fatalf("mappingInsert(%d) fl = %d, want 0", size, fl)
		}
		if sl != size>>4 {
			t.Fatalf("mappingInsert(%d) sl = %d, want %d", size, sl, size>>4)
		}
	}
}

func TestCoalesceRestoresHeap(t *testing.T) {
	a := mk(1 << 20).(*Alloc)
	initial := a.Stats().FreeBytes
	var ptrs []ukalloc.Ptr
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(1000)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free odd then even indices: every free ends adjacent to a free
	// neighbour eventually, so full coalescing must yield one block.
	for i := 1; i < len(ptrs); i += 2 {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ptrs); i += 2 {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().FreeBytes; got != initial {
		t.Fatalf("FreeBytes after drain = %d, want %d", got, initial)
	}
	// Nearly the whole heap must be allocatable as one block again
	// (exact-size requests can miss due to TLSF's bin round-up, a
	// property of the canonical algorithm).
	if _, err := a.Malloc(initial - initial/8); err != nil {
		t.Fatalf("Malloc(~whole heap) after drain: %v", err)
	}
}

func TestGrowInPlace(t *testing.T) {
	a := mk(1 << 20).(*Alloc)
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing allocated after p, so growth happens in place.
	np, err := a.Realloc(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if np != p {
		t.Errorf("Realloc moved block (%d -> %d); want in-place growth into free successor", p, np)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := mk(1 << 20).(*Alloc)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != ukalloc.ErrBadPointer {
		t.Errorf("double free = %v, want ErrBadPointer", err)
	}
}
