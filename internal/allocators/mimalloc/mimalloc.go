// Package mimalloc implements a mimalloc-style allocator (Leijen et al.,
// "Mimalloc: Free List Sharding in Action" [42]), the state-of-the-art
// general-purpose backend in the paper's evaluation and the default
// allocator for its application throughput measurements (§5.3).
//
// The design follows mimalloc's core idea: memory is carved into 64 KiB
// pages, each page serves exactly one size class and keeps its own
// sharded free list, so the malloc fast path is a single pop from the
// current page's list and the free fast path is a push onto the owning
// page's list — no global lists, no list walks. Pages whose blocks are
// all freed are retired and can be re-targeted at any class, bounding
// fragmentation.
//
// The paper notes mimalloc needs a thread for deferred reclamation and a
// pthread dependency; in our single-core simulated machine the deferred
// free list collapses into the local one, which matches mimalloc's
// behaviour when owner and freer are the same thread.
package mimalloc

import (
	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("mimalloc", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return New(sink)
	})
}

const (
	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift

	// maxSmall is the largest size served from size-class pages; larger
	// requests take the whole-page path.
	maxSmall = 8192

	nilRef = -1
)

// classes lists the block sizes of the size classes: fine-grained at the
// bottom (multiples of 16) and roughly geometric above, mirroring
// mimalloc's class spacing.
var classes = buildClasses()

func buildClasses() []int {
	var cs []int
	for s := 16; s <= 128; s += 16 {
		cs = append(cs, s)
	}
	for s := 160; s <= 256; s += 32 {
		cs = append(cs, s)
	}
	for s := 320; s <= 512; s += 64 {
		cs = append(cs, s)
	}
	for s := 640; s <= 1024; s += 128 {
		cs = append(cs, s)
	}
	for s := 1280; s <= 2048; s += 256 {
		cs = append(cs, s)
	}
	for s := 2560; s <= 4096; s += 512 {
		cs = append(cs, s)
	}
	for s := 5120; s <= maxSmall; s += 1024 {
		cs = append(cs, s)
	}
	return cs
}

// classFor maps a request size to a class index using a computed lookup;
// O(1) without a table walk.
func classFor(n int) int {
	if n <= 128 {
		return (n+15)/16*16/16 /* ceil to 16 */ - 1
	}
	// Geometric region: find the band by leading bit.
	for i := 8; i < len(classes); i++ {
		if classes[i] >= n {
			return i
		}
	}
	return -1
}

// page is the metadata for one 64 KiB page (kept outside the arena, as
// mimalloc keeps page metadata in segment headers).
type page struct {
	class     int // size-class index, or -1 when retired/free
	free      int // head of intrusive free list (arena offset), nilRef if empty
	used      int // live blocks
	capacity  int // total blocks the page can hold
	extendCnt int // blocks handed out so far via lazy extension
	base      int // arena offset of first block
	inPartial bool
	large     int // if > 0, number of pages in a large span starting here
	largeBase int // for aligned large allocations: span base page index
}

// Alloc is the mimalloc-style allocator.
type Alloc struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena

	pagesStart int // arena offset of page 0 (pageSize-aligned)
	nPages     int
	pages      []page
	bump       int   // next never-used page index
	freePages  []int // retired page indices (LIFO)

	partial [][]int // per-class stack of page indices with free space

	stats ukalloc.Stats
	inUse int
}

// New returns an uninitialized mimalloc-style allocator. sink may be nil.
func New(sink ukalloc.CostSink) *Alloc { return &Alloc{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *Alloc) Name() string { return "mimalloc" }

func (a *Alloc) charge(c uint64) {
	if a.sink != nil {
		a.sink.Charge(c)
	}
}

// Init implements ukalloc.Allocator.
func (a *Alloc) Init(arena *ukalloc.Arena) error {
	if arena.Len() < 2*pageSize {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	a.pagesStart = pageSize // also serves as the never-return-0 guard
	a.nPages = (arena.Len() - a.pagesStart) / pageSize
	if a.nPages < 1 {
		return ukalloc.ErrHeapTooSmall
	}
	a.pages = make([]page, a.nPages)
	for i := range a.pages {
		a.pages[i].class = -1
	}
	a.bump = 0
	a.freePages = a.freePages[:0]
	a.partial = make([][]int, len(classes))
	a.inUse = 0
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: a.nPages * pageSize}
	// Segment/heap header setup plus the GC/deferred-free thread spawn
	// the paper mentions (§3.2: mimalloc needs an early allocator to
	// start its thread). Charged as a fixed boot cost.
	a.charge(uint64(len(a.pages))*8 + 1_400_000)
	return nil
}

func (a *Alloc) pageAddr(idx int) int { return a.pagesStart + idx*pageSize }

func (a *Alloc) pageIndex(p ukalloc.Ptr) int {
	return (int(p) - a.pagesStart) >> pageShift
}

// acquirePage obtains a retired or never-used page for class c.
func (a *Alloc) acquirePage(c int) int {
	var idx int
	if n := len(a.freePages); n > 0 {
		idx = a.freePages[n-1]
		a.freePages = a.freePages[:n-1]
	} else if a.bump < a.nPages {
		idx = a.bump
		a.bump++
	} else {
		return nilRef
	}
	size := classes[c]
	pg := &a.pages[idx]
	*pg = page{
		class:    c,
		free:     nilRef,
		capacity: pageSize / size,
		base:     a.pageAddr(idx),
	}
	return idx
}

// popBlock takes one block from page idx, marking it as about to be
// written; the page must have space.
func (a *Alloc) popBlock(idx int) ukalloc.Ptr {
	pg := &a.pages[idx]
	p := pg.free
	if p != nilRef {
		pg.free = a.readLink(p)
	} else {
		// Lazy extension: hand out the next never-used block.
		p = pg.base + pg.extendCnt*classes[pg.class]
		pg.extendCnt++
	}
	pg.used++
	a.arena.Mark(p, classes[pg.class])
	return ukalloc.Ptr(p)
}

func (a *Alloc) pageHasSpace(pg *page) bool {
	return pg.free != nilRef || pg.extendCnt < pg.capacity
}

func (a *Alloc) readLink(off int) int {
	return int(int64(a.arena.Get64(off)))
}

func (a *Alloc) writeLink(off, v int) {
	a.arena.Put64(off, uint64(int64(v)))
}

// Malloc implements ukalloc.Allocator.
func (a *Alloc) Malloc(n int) (ukalloc.Ptr, error) {
	if n < 0 {
		return 0, ukalloc.ErrNoMem
	}
	if n == 0 {
		n = 1
	}
	if n > maxSmall {
		return a.mallocLarge(n, 1)
	}
	c := classFor(n)
	// Fast path: a partial page for this class.
	stack := a.partial[c]
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		pg := &a.pages[idx]
		if pg.class != c || !a.pageHasSpace(pg) {
			// Stale entry (page retired or filled); drop it.
			stack = stack[:len(stack)-1]
			pg.inPartial = false
			continue
		}
		p := a.popBlock(idx)
		if !a.pageHasSpace(pg) {
			stack = stack[:len(stack)-1]
			pg.inPartial = false
		}
		a.partial[c] = stack
		a.accountAlloc(classes[c])
		a.charge(12) // mimalloc fast path: pop + bookkeeping
		return p, nil
	}
	a.partial[c] = stack
	// Slow path: acquire a fresh page.
	idx := a.acquirePage(c)
	if idx == nilRef {
		a.stats.Failures++
		a.charge(30)
		return 0, ukalloc.ErrNoMem
	}
	p := a.popBlock(idx)
	pg := &a.pages[idx]
	if a.pageHasSpace(pg) {
		pg.inPartial = true
		a.partial[c] = append(a.partial[c], idx)
	}
	a.accountAlloc(classes[c])
	a.charge(80) // page acquisition
	return p, nil
}

// mallocLarge allocates npages = ceil(n/pageSize) contiguous pages. The
// span is recorded in the head page's metadata. alignPages > 1 requests
// the span start on that page-count boundary.
func (a *Alloc) mallocLarge(n, alignPages int) (ukalloc.Ptr, error) {
	npages := (n + pageSize - 1) / pageSize
	// First fit over retired pages is skipped (retired pages are
	// singletons); carve from the bump region, aligning if requested.
	start := a.bump
	if alignPages > 1 {
		abs := a.pageAddr(start)
		alignedAbs := ukalloc.AlignUp(abs, alignPages*pageSize)
		start += (alignedAbs - abs) / pageSize
	}
	if start+npages > a.nPages {
		a.stats.Failures++
		a.charge(40)
		return 0, ukalloc.ErrNoMem
	}
	// Any skipped pages go to the retired list so they remain usable.
	for i := a.bump; i < start; i++ {
		a.pages[i].class = -1
		a.freePages = append(a.freePages, i)
	}
	a.bump = start + npages
	pg := &a.pages[start]
	*pg = page{class: -1, large: npages, base: a.pageAddr(start), used: 1}
	a.arena.Mark(pg.base, npages*pageSize)
	a.accountAlloc(npages * pageSize)
	a.charge(100)
	return ukalloc.Ptr(pg.base), nil
}

// Free implements ukalloc.Allocator.
func (a *Alloc) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	idx := a.pageIndex(p)
	if idx < 0 || idx >= a.nPages {
		return ukalloc.ErrBadPointer
	}
	pg := &a.pages[idx]
	if pg.large > 0 && int(p) == pg.base {
		return a.freeLarge(idx)
	}
	if pg.class < 0 || pg.used <= 0 {
		return ukalloc.ErrBadPointer
	}
	size := classes[pg.class]
	if (int(p)-pg.base)%size != 0 || int(p) >= pg.base+pg.extendCnt*size {
		return ukalloc.ErrBadPointer
	}
	a.writeLink(int(p), pg.free)
	pg.free = int(p)
	pg.used--
	a.accountFree(size)
	a.stats.Frees++
	if pg.used == 0 {
		// Retire the page for reuse by any class.
		pg.class = -1
		pg.inPartial = false
		a.freePages = append(a.freePages, idx)
		a.charge(30)
		return nil
	}
	if !pg.inPartial {
		pg.inPartial = true
		a.partial[pg.class] = append(a.partial[pg.class], idx)
	}
	a.charge(10) // mimalloc free fast path: one push
	return nil
}

func (a *Alloc) freeLarge(idx int) error {
	pg := &a.pages[idx]
	n := pg.large
	if pg.used == 0 {
		return ukalloc.ErrBadPointer
	}
	pg.used = 0
	pg.large = 0
	for i := 0; i < n; i++ {
		a.pages[idx+i].class = -1
		a.freePages = append(a.freePages, idx+i)
	}
	a.accountFree(n * pageSize)
	a.stats.Frees++
	a.charge(40)
	return nil
}

// Realloc implements ukalloc.Allocator.
func (a *Alloc) Realloc(p ukalloc.Ptr, n int) (ukalloc.Ptr, error) {
	if p.IsNil() {
		return a.Malloc(n)
	}
	if n == 0 {
		return 0, a.Free(p)
	}
	old := a.UsableSize(p)
	if old == 0 {
		return 0, ukalloc.ErrBadPointer
	}
	if n <= old && n > old/4 {
		return p, nil // fits, and not wastefully oversized
	}
	np, err := a.Malloc(n)
	if err != nil {
		return 0, err
	}
	cnt := old
	if n < cnt {
		cnt = n
	}
	a.arena.Copy(int(np), int(p), cnt)
	a.charge(uint64(cnt) / 16)
	return np, a.Free(p)
}

// Memalign implements ukalloc.Allocator.
func (a *Alloc) Memalign(align, n int) (ukalloc.Ptr, error) {
	if !ukalloc.IsPow2(align) {
		return 0, ukalloc.ErrBadAlign
	}
	if align <= ukalloc.MinAlign {
		return a.Malloc(n)
	}
	if n <= maxSmall && align <= maxSmall {
		// Pick the smallest class that is a multiple of align: block
		// addresses are pageBase + k*classSize with pageBase 64Ki-aligned.
		for c := classFor(n); c >= 0 && c < len(classes); c++ {
			if classes[c]%align == 0 {
				return a.mallocClass(c)
			}
		}
	}
	if align <= pageSize {
		return a.mallocLarge(max(n, 1), 1) // page-aligned covers align <= 64Ki
	}
	return a.mallocLarge(max(n, 1), align/pageSize)
}

// mallocClass allocates one block of exactly class c.
func (a *Alloc) mallocClass(c int) (ukalloc.Ptr, error) {
	return a.Malloc(classes[c]) // classFor(classes[c]) == c by construction
}

// UsableSize implements ukalloc.Allocator.
func (a *Alloc) UsableSize(p ukalloc.Ptr) int {
	if p.IsNil() {
		return 0
	}
	idx := a.pageIndex(p)
	if idx < 0 || idx >= a.nPages {
		return 0
	}
	pg := &a.pages[idx]
	if pg.large > 0 && int(p) == pg.base {
		return pg.large * pageSize
	}
	if pg.class < 0 {
		return 0
	}
	return classes[pg.class]
}

// Arena implements ukalloc.Allocator.
func (a *Alloc) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *Alloc) Stats() ukalloc.Stats { return a.stats }

func (a *Alloc) accountAlloc(n int) {
	a.inUse += n
	a.stats.Mallocs++
	a.stats.FreeBytes = a.nPages*pageSize - a.inUse
	if a.inUse > a.stats.PeakUsed {
		a.stats.PeakUsed = a.inUse
	}
}

func (a *Alloc) accountFree(n int) {
	a.inUse -= n
	a.stats.FreeBytes = a.nPages*pageSize - a.inUse
}

// Classes exposes the size-class table for tests.
func Classes() []int { return append([]int(nil), classes...) }

// ClassFor exposes the class mapping for tests.
func ClassFor(n int) int { return classFor(n) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
