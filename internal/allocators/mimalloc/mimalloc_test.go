package mimalloc

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
	alloctest.Run(t, "mimalloc", mk, alloctest.Caps{Reclaims: true})
}

// TestClassMapping property: classFor(n) returns a class whose size is
// >= n, and the class below (if any) is < n — i.e. the tightest class.
func TestClassMapping(t *testing.T) {
	f := func(req uint16) bool {
		n := int(req)%maxSmall + 1
		c := classFor(n)
		if c < 0 || c >= len(classes) {
			return false
		}
		if classes[c] < n {
			return false
		}
		if c > 0 && classes[c-1] >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassesSorted(t *testing.T) {
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			t.Fatalf("classes not strictly increasing at %d: %v", i, classes)
		}
		if classes[i]%16 != 0 {
			t.Fatalf("class %d = %d not multiple of 16", i, classes[i])
		}
	}
	if classes[len(classes)-1] != maxSmall {
		t.Fatalf("largest class = %d, want %d", classes[len(classes)-1], maxSmall)
	}
}

// TestPageRetirement: a page whose blocks are all freed must be reusable
// by a different size class.
func TestPageRetirement(t *testing.T) {
	a := mk(4 << 20).(*Alloc)
	var ptrs []ukalloc.Ptr
	// Fill exactly one page of 16-byte blocks.
	cap16 := pageSize / 16
	for i := 0; i < cap16; i++ {
		p, err := a.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	firstPage := a.pageIndex(ptrs[0])
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.pages[firstPage].class != -1 {
		t.Fatalf("page %d not retired after all frees (class=%d)", firstPage, a.pages[firstPage].class)
	}
	// Next allocation of a different class should reuse the retired page.
	p, err := a.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.pageIndex(p); got != firstPage {
		t.Logf("note: reused page %d (retired %d); LIFO reuse expected but not required", got, firstPage)
	}
	if a.pages[a.pageIndex(p)].class < 0 {
		t.Fatal("allocation landed on unclaimed page")
	}
}

// TestLargeAllocations covers the whole-page span path.
func TestLargeAllocations(t *testing.T) {
	a := mk(8 << 20).(*Alloc)
	p, err := a.Malloc(3 * pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if int(p)%pageSize != 0 {
		t.Errorf("large alloc offset %d not page aligned", p)
	}
	if us := a.UsableSize(p); us < 3*pageSize {
		t.Errorf("usable = %d, want >= %d", us, 3*pageSize)
	}
	b := ukalloc.Bytes(a, p, 3*pageSize)
	b[0], b[len(b)-1] = 1, 2
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	// Freed span pages become reusable.
	q, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(q); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathCheaperThanSlowPath checks the cost model mirrors the
// sharded-free-list design: steady-state mallocs are much cheaper than
// page acquisitions.
func TestFastPathCheaperThanSlowPath(t *testing.T) {
	var last uint64
	a := New(sinkFunc(func(c uint64) { last = c }))
	if err := a.Init(ukalloc.NewArena(4 << 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Malloc(64); err != nil { // first: page acquisition
		t.Fatal(err)
	}
	slow := last
	if _, err := a.Malloc(64); err != nil { // second: fast path
		t.Fatal(err)
	}
	fast := last
	if fast >= slow {
		t.Errorf("fast path %d cycles >= slow path %d cycles", fast, slow)
	}
}

type sinkFunc func(uint64)

func (f sinkFunc) Charge(c uint64) { f(c) }
