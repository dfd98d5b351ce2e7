// Package tinyalloc implements the thi-ng/tinyalloc allocator [67], a
// deliberately small and simple backend the paper evaluates alongside
// buddy, TLSF and mimalloc. It keeps a fixed table of block descriptors
// threaded onto three singly-linked lists (fresh, free, used); allocation
// is address-ordered first fit, and every free triggers an
// address-ordered insert plus a compaction sweep that merges adjacent
// free blocks.
//
// The linear list walks are exactly why the paper measures tinyalloc as
// the fastest backend for small workloads (Fig 16: +31.8% over mimalloc
// at 10 SQLite queries) but ~30% slower under sustained load (Fig 15,
// Fig 18): with many live allocations, the used-list walk on free and
// the compaction sweep dominate.
package tinyalloc

import (
	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("tinyalloc", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return New(sink)
	})
}

const (
	// defaultMaxBlocks mirrors TA_MAX_BLOCKS sized for unikernel heaps.
	defaultMaxBlocks = 1 << 16
	// splitThresh: a block is split when the remainder exceeds this,
	// as in upstream tinyalloc (TA_SPLIT_THRESH, default 16).
	splitThresh = 16
	base        = 64
	nilRef      = -1
)

// block is a descriptor in the static block table. tinyalloc keeps the
// descriptors outside the heap (in C, in a static array), so we mirror
// that with a Go slice; the payload bytes still come from the arena.
type block struct {
	addr int // arena offset of payload
	size int
	next int // list link (index into blocks), nilRef terminates
}

// Alloc is the tinyalloc allocator.
type Alloc struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena

	blocks []block
	fresh  int // head of unused descriptor list
	free   int // head of free list (address-ordered)
	used   int // head of used list (most-recent-first, as upstream)
	top    int // bump pointer for never-used heap space

	stats ukalloc.Stats
	inUse int
}

// New returns an uninitialized tinyalloc. sink may be nil.
func New(sink ukalloc.CostSink) *Alloc { return &Alloc{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *Alloc) Name() string { return "tinyalloc" }

func (a *Alloc) charge(c uint64) {
	if a.sink != nil {
		a.sink.Charge(c)
	}
}

// Init implements ukalloc.Allocator. Initialization links the block
// descriptor table onto the fresh list — O(maxBlocks), which is the
// middle ground between TLSF's O(1) and buddy's per-frame walk, matching
// its mid-pack boot time in Fig 14 (0.87ms).
func (a *Alloc) Init(arena *ukalloc.Arena) error {
	if arena.Len() < base+64 {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	a.blocks = make([]block, defaultMaxBlocks)
	for i := range a.blocks {
		a.blocks[i].next = i + 1
	}
	a.blocks[len(a.blocks)-1].next = nilRef
	a.fresh = 0
	a.free = nilRef
	a.used = nilRef
	a.top = base
	a.inUse = 0
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: arena.Len() - base}
	a.charge(uint64(len(a.blocks)) * 6) // descriptor-table init walk (one link write per entry)
	return nil
}

// allocDescriptor pops a descriptor from the fresh list.
func (a *Alloc) allocDescriptor() int {
	i := a.fresh
	if i != nilRef {
		a.fresh = a.blocks[i].next
		a.blocks[i].next = nilRef
	}
	return i
}

func (a *Alloc) releaseDescriptor(i int) {
	a.blocks[i] = block{next: a.fresh}
	a.fresh = i
}

// Malloc implements ukalloc.Allocator.
func (a *Alloc) Malloc(n int) (ukalloc.Ptr, error) {
	return a.alloc(ukalloc.MinAlign, n)
}

func (a *Alloc) alloc(align, n int) (ukalloc.Ptr, error) {
	if n < 0 {
		return 0, ukalloc.ErrNoMem
	}
	n = ukalloc.AlignUp(n, ukalloc.MinAlign)
	if n == 0 {
		n = ukalloc.MinAlign
	}
	work := uint64(10)
	// First fit over the free list. For align > MinAlign we only accept
	// blocks whose address is already aligned (tinyalloc upstream has no
	// memalign; this is the minimal faithful extension).
	prev := nilRef
	for i := a.free; i != nilRef; prev, i = i, a.blocks[i].next {
		work += 6
		b := &a.blocks[i]
		if b.size < n || b.addr%align != 0 {
			continue
		}
		// Unlink from free list.
		if prev == nilRef {
			a.free = b.next
		} else {
			a.blocks[prev].next = b.next
		}
		// Split if the remainder is worth keeping.
		if b.size-n > splitThresh {
			rest := a.allocDescriptor()
			if rest != nilRef {
				a.blocks[rest].addr = b.addr + n
				a.blocks[rest].size = b.size - n
				b.size = n
				a.insertFreeSorted(rest)
				work += 8
			}
		}
		b.next = a.used
		a.used = i
		// An unsplit block keeps up to splitThresh bytes of slack:
		// mark and account what Free will give back, not the request.
		a.arena.Mark(b.addr, b.size)
		a.accountAlloc(b.size)
		a.charge(work)
		return ukalloc.Ptr(b.addr), nil
	}
	// No free block fits: carve from the never-used top region.
	addr := ukalloc.AlignUp(a.top, align)
	if addr+n > a.arena.Len() {
		a.stats.Failures++
		a.charge(work)
		return 0, ukalloc.ErrNoMem
	}
	i := a.allocDescriptor()
	if i == nilRef {
		a.stats.Failures++
		a.charge(work)
		return 0, ukalloc.ErrNoMem
	}
	if gap := addr - a.top; gap >= splitThresh {
		// Keep the alignment gap allocatable.
		g := a.allocDescriptor()
		if g != nilRef {
			a.blocks[g].addr = a.top
			a.blocks[g].size = gap
			a.insertFreeSorted(g)
		}
	}
	a.blocks[i] = block{addr: addr, size: n, next: a.used}
	a.used = i
	a.top = addr + n
	a.arena.Mark(addr, n)
	a.accountAlloc(n)
	a.charge(work + 12)
	return ukalloc.Ptr(addr), nil
}

// insertFreeSorted inserts descriptor i into the free list in address
// order, as upstream tinyalloc does to enable compaction.
func (a *Alloc) insertFreeSorted(i int) {
	addr := a.blocks[i].addr
	if a.free == nilRef || a.blocks[a.free].addr > addr {
		a.blocks[i].next = a.free
		a.free = i
		return
	}
	cur := a.free
	for a.blocks[cur].next != nilRef && a.blocks[a.blocks[cur].next].addr < addr {
		cur = a.blocks[cur].next
	}
	a.blocks[i].next = a.blocks[cur].next
	a.blocks[cur].next = i
}

// Free implements ukalloc.Allocator. It walks the used list to find the
// descriptor (linear, as upstream), inserts it into the address-ordered
// free list and runs the compaction sweep.
func (a *Alloc) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	work := uint64(8)
	prev := nilRef
	for i := a.used; i != nilRef; prev, i = i, a.blocks[i].next {
		work += 5
		if a.blocks[i].addr != int(p) {
			continue
		}
		if prev == nilRef {
			a.used = a.blocks[i].next
		} else {
			a.blocks[prev].next = a.blocks[i].next
		}
		a.accountFree(a.blocks[i].size)
		a.insertFreeSorted(i)
		work += a.compact()
		a.stats.Frees++
		a.charge(work)
		return nil
	}
	a.charge(work)
	return ukalloc.ErrBadPointer
}

// compact merges physically adjacent free-list entries (upstream
// ta_compact). Returns the work units spent, for cost accounting.
func (a *Alloc) compact() uint64 {
	work := uint64(0)
	i := a.free
	for i != nilRef {
		work += 4
		next := a.blocks[i].next
		for next != nilRef && a.blocks[i].addr+a.blocks[i].size == a.blocks[next].addr {
			a.blocks[i].size += a.blocks[next].size
			a.blocks[i].next = a.blocks[next].next
			a.releaseDescriptor(next)
			next = a.blocks[i].next
			work += 6
		}
		i = a.blocks[i].next
	}
	return work
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
	if n <= old {
		return p, nil
	}
	np, err := a.Malloc(n)
	if err != nil {
		return 0, err
	}
	a.arena.Copy(int(np), int(p), old)
	a.charge(uint64(old) / 16)
	return np, a.Free(p)
}

// Memalign implements ukalloc.Allocator.
func (a *Alloc) Memalign(align, n int) (ukalloc.Ptr, error) {
	if !ukalloc.IsPow2(align) {
		return 0, ukalloc.ErrBadAlign
	}
	if align < ukalloc.MinAlign {
		align = ukalloc.MinAlign
	}
	return a.alloc(align, n)
}

// UsableSize implements ukalloc.Allocator (linear over the used list,
// like everything else in tinyalloc).
func (a *Alloc) UsableSize(p ukalloc.Ptr) int {
	for i := a.used; i != nilRef; i = a.blocks[i].next {
		if a.blocks[i].addr == int(p) {
			return a.blocks[i].size
		}
	}
	return 0
}

// Arena implements ukalloc.Allocator.
func (a *Alloc) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *Alloc) Stats() ukalloc.Stats { return a.stats }

func (a *Alloc) accountAlloc(n int) {
	a.inUse += n
	a.stats.Mallocs++
	a.stats.FreeBytes = a.arena.Len() - base - a.inUse
	if a.inUse > a.stats.PeakUsed {
		a.stats.PeakUsed = a.inUse
	}
}

func (a *Alloc) accountFree(n int) {
	a.inUse -= n
	a.stats.FreeBytes = a.arena.Len() - base - a.inUse
}

// ListLengths reports (used, free, fresh) list lengths for tests.
func (a *Alloc) ListLengths() (used, free, fresh int) {
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
