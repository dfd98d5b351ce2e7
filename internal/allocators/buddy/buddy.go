// Package buddy implements a binary buddy allocator compatible with the
// ukalloc API, modelled on the Mini-OS page allocator that Unikraft
// inherits from Xen (paper §5.5, [41]).
//
// The allocator manages a power-of-two region of the arena. Every block
// carries a 16-byte header holding its order, a free flag and a
// validation magic; free blocks additionally thread a doubly-linked free
// list through their payload, one list per order. Allocation splits
// larger blocks top-down; freeing coalesces with the buddy (offset XOR
// size) bottom-up — the textbook algorithm, implemented for real over
// the byte arena.
//
// Like Mini-OS, initialization walks every page frame of the managed
// region to set up frame accounting, which is why the paper measures the
// buddy allocator as the slowest-booting backend (Fig 14: 3.07ms for
// nginx vs 0.49ms with the boot allocator).
package buddy

import (
	"math/bits"

	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("buddy", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return newAllocator(sink)
	})
}

const (
	// minOrder is the smallest block: 2^5 = 32 bytes (16-byte header +
	// 16-byte minimum payload).
	minOrder = 5
	// maxOrders bounds the per-order free-list array (2^47 block max).
	maxOrders = 48

	headerSize = 16
	// base offsets the managed region so offset 0 is never returned and
	// payloads (block+16) are 16-byte aligned.
	base = 64

	// magic values validate headers on free. magicAligned tags the
	// back-pointer word used by Memalign.
	magicBlock   = 0xB0DD
	magicAligned = 0xA11D

	// nilRef marks an empty free-list link (region-relative offsets are
	// always >= 0, so -1 is safe).
	nilRef = -1

	// pageSize is Mini-OS's frame, the unit of its per-frame boot-time
	// initialization (sim.CostBuddyInitFrame); see the package comment.
	pageSize = 4096
)

// allocator is the buddy allocator. Offsets in free lists and headers are
// relative to the managed region's origin (arena offset `base`).
type allocator struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena

	regionSize int // power of two
	maxOrder   int
	free       [maxOrders]int // head of free list per order, region-relative; nilRef if empty

	stats ukalloc.Stats
	used  int
}

// newAllocator returns an uninitialized buddy allocator; sink must not be nil.
func newAllocator(sink ukalloc.CostSink) *allocator { return &allocator{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *allocator) Name() string { return "buddy" }

// Init implements ukalloc.Allocator.
func (a *allocator) Init(arena *ukalloc.Arena) error {
	if arena.Len() < base+(1<<minOrder)*2 {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	avail := arena.Len() - base
	// Manage the largest power-of-two prefix; the remainder is wasted,
	// as in Mini-OS where the allocator works in naturally aligned
	// power-of-two extents.
	order := bits.Len(uint(avail)) - 1
	a.regionSize = 1 << order
	a.maxOrder = order
	for i := range a.free {
		a.free[i] = nilRef
	}
	// One maximal free block covers the region.
	a.writeHeader(0, order, true)
	a.pushFree(0, order)

	a.used = 0
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: a.regionSize}

	// Mini-OS-style per-frame initialization cost (the algorithmic work
	// is O(1) in this implementation, but the system we reproduce walks
	// the frame table; charge it so boot-time experiments see it).
	frames := a.regionSize / pageSize
	if frames < 1 {
		frames = 1
	}
	a.sink.Pay(sim.CostBuddyInitFrame, uint64(frames))
	return nil
}

// header layout (8 bytes at block start, region-relative offset off):
//
//	bits 0..7   order
//	bit  8      free flag
//	bits 48..63 magicBlock
//
// Free blocks keep next/prev free-list links at off+8 and off+16 (the
// link area overlaps the allocated payload, which is fine: a block is
// either free or allocated).
func (a *allocator) writeHeader(off, order int, free bool) {
	w := uint64(order) & 0xff
	if free {
		w |= 1 << 8
	}
	w |= magicBlock << 48
	a.put(off, w)
}

func (a *allocator) readHeader(off int) (order int, free, ok bool) {
	w := a.get(off)
	if w>>48 != magicBlock {
		return 0, false, false
	}
	return int(w & 0xff), w&(1<<8) != 0, true
}

// get and put access the word at region-relative offset off.
func (a *allocator) get(off int) uint64    { return a.arena.Get64(base + off) }
func (a *allocator) put(off int, v uint64) { a.arena.Put64(base+off, v) }

func (a *allocator) linkNext(off int) int { return int(int64(a.get(off + 8))) }
func (a *allocator) linkPrev(off int) int { return int(int64(a.get(off + 16))) }
func (a *allocator) setNext(off, v int)   { a.put(off+8, uint64(int64(v))) }
func (a *allocator) setPrev(off, v int)   { a.put(off+16, uint64(int64(v))) }

func (a *allocator) pushFree(off, order int) {
	head := a.free[order]
	a.setNext(off, head)
	a.setPrev(off, nilRef)
	if head != nilRef {
		a.setPrev(head, off)
	}
	a.free[order] = off
	a.writeHeader(off, order, true)
}

func (a *allocator) unlinkFree(off, order int) {
	next, prev := a.linkNext(off), a.linkPrev(off)
	if prev == nilRef {
		a.free[order] = next
	} else {
		a.setNext(prev, next)
	}
	if next != nilRef {
		a.setPrev(next, prev)
	}
}

// orderFor returns the smallest order whose block holds n payload bytes.
func orderFor(n int) int {
	need := n + headerSize
	if need < 1<<minOrder {
		return minOrder
	}
	o := bits.Len(uint(need - 1))
	if o < minOrder {
		o = minOrder
	}
	return o
}

// Malloc implements ukalloc.Allocator.
func (a *allocator) Malloc(n int) (ukalloc.Ptr, error) {
	if n < 0 {
		return 0, ukalloc.ErrNoMem
	}
	if n == 0 {
		n = 1
	}
	order := orderFor(n)
	off, err := a.allocBlock(order)
	if err != nil {
		return 0, err
	}
	// Clear the word at payload start that Free uses to distinguish
	// aligned allocations (see Memalign).
	a.put(off+8, 0)
	a.arena.Mark(base+off+headerSize, 1<<order-headerSize)
	a.account(order, +1)
	a.sink.Pay(sim.CostBuddyMalloc, 1)
	return ukalloc.Ptr(base + off + headerSize), nil
}

// allocBlock finds or splits a free block of exactly `order`.
func (a *allocator) allocBlock(order int) (int, error) {
	if order > a.maxOrder {
		a.stats.Failures++
		return 0, ukalloc.ErrNoMem
	}
	o := order
	for o <= a.maxOrder && a.free[o] == nilRef {
		o++
	}
	a.sink.Pay(sim.CostBuddyOrderScan, uint64(o-order))
	if o > a.maxOrder {
		a.stats.Failures++
		return 0, ukalloc.ErrNoMem
	}
	off := a.free[o]
	a.unlinkFree(off, o)
	// Split down to the requested order, returning upper halves to the
	// free lists.
	a.sink.Pay(sim.CostBuddySplit, uint64(o-order))
	for o > order {
		o--
		upper := off + (1 << o)
		a.pushFree(upper, o)
	}
	a.writeHeader(off, order, false)
	return off, nil
}

// Free implements ukalloc.Allocator.
func (a *allocator) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	off, order, err := a.resolve(p)
	if err != nil {
		return err
	}
	a.account(order, -1)
	a.freeBlock(off, order)
	a.stats.Frees++
	a.sink.Pay(sim.CostBuddyFree, 1)
	return nil
}

// resolve maps a user pointer back to its block's region-relative offset
// and order, handling the Memalign back-pointer.
func (a *allocator) resolve(p ukalloc.Ptr) (off, order int, err error) {
	abs := int(p)
	if abs < base+headerSize || abs >= a.arena.Len() {
		return 0, 0, ukalloc.ErrBadPointer
	}
	blockAbs := abs - headerSize
	if w := a.arena.Get64(abs - 8); w>>48 == magicAligned {
		blockAbs = base + int(w&0xffffffffffff)
	}
	if blockAbs < base || blockAbs >= a.arena.Len() {
		return 0, 0, ukalloc.ErrBadPointer
	}
	off = blockAbs - base
	ord, free, ok := a.readHeader(off)
	if !ok || free {
		return 0, 0, ukalloc.ErrBadPointer
	}
	return off, ord, nil
}

// freeBlock returns a block to the free lists, coalescing with its buddy
// while possible.
func (a *allocator) freeBlock(off, order int) {
	merges := uint64(0)
	for order < a.maxOrder {
		buddy := off ^ (1 << order)
		if buddy+(1<<order) > a.regionSize {
			break
		}
		bOrder, bFree, ok := a.readHeader(buddy)
		if !ok || !bFree || bOrder != order {
			break
		}
		a.unlinkFree(buddy, order)
		if buddy < off {
			off = buddy
		}
		order++
		merges++
	}
	a.pushFree(off, order)
	a.sink.Pay(sim.CostBuddyMerge, merges)
}

func (a *allocator) account(order int, dir int) {
	sz := 1 << order
	if dir > 0 {
		a.used += sz
		a.stats.Mallocs++
	} else {
		a.used -= sz
	}
	a.stats.FreeBytes = a.regionSize - a.used
	if a.used > a.stats.PeakUsed {
		a.stats.PeakUsed = a.used
	}
}

// Realloc implements ukalloc.Allocator.
func (a *allocator) Realloc(p ukalloc.Ptr, n int) (ukalloc.Ptr, error) {
	if p.IsNil() {
		return a.Malloc(n)
	}
	if n == 0 {
		return 0, a.Free(p)
	}
	off, order, err := a.resolve(p)
	if err != nil {
		return 0, err
	}
	// Same block still fits (and is not wastefully large): keep it. An
	// aligned block's payload starts late, so its order alone does not
	// say that n fits.
	oldUsable := (base + off + (1 << order)) - int(p)
	if orderFor(n) == order && n <= oldUsable {
		return p, nil
	}
	np, err := a.Malloc(n)
	if err != nil {
		return 0, err
	}
	cnt := n
	if oldUsable < cnt {
		cnt = oldUsable
	}
	a.arena.Copy(int(np), int(p), cnt)
	a.sink.Pay(sim.CostCopy, uint64(cnt))
	return np, a.Free(p)
}

// Memalign implements ukalloc.Allocator.
func (a *allocator) Memalign(align, n int) (ukalloc.Ptr, error) {
	if !ukalloc.IsPow2(align) {
		return 0, ukalloc.ErrBadAlign
	}
	if align <= ukalloc.MinAlign {
		return a.Malloc(n)
	}
	// Allocate enough to place an aligned payload plus the back-pointer
	// word inside the block.
	order := orderFor(n + align)
	off, err := a.allocBlock(order)
	if err != nil {
		return 0, err
	}
	payload := ukalloc.AlignUp(base+off+headerSize+8, align)
	w := uint64(magicAligned)<<48 | uint64(off)
	a.arena.Put64(payload-8, w)
	a.arena.Mark(payload, base+off+1<<order-payload)
	a.account(order, +1)
	a.sink.Pay(sim.CostBuddyMemalign, 1)
	return ukalloc.Ptr(payload), nil
}

// UsableSize implements ukalloc.Allocator.
func (a *allocator) UsableSize(p ukalloc.Ptr) int {
	off, order, err := a.resolve(p)
	if err != nil {
		return 0
	}
	return base + off + (1 << order) - int(p)
}

// Arena implements ukalloc.Allocator.
func (a *allocator) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *allocator) Stats() ukalloc.Stats { return a.stats }
