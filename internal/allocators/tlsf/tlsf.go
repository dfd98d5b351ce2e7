// Package tlsf implements the Two-Level Segregated Fit real-time memory
// allocator (Masmano et al., ECRTS'04 [53]), one of the five ukalloc
// backends evaluated in the paper. TLSF provides O(1) malloc and free
// with low, bounded fragmentation, which is why it both boots fast
// (Fig 14: 0.51ms) and sustains high steady-state throughput (Fig 15).
//
// The implementation follows the canonical design: a first-level bitmap
// segregates free blocks by power-of-two size ranges, a second-level
// bitmap subdivides each range into 16 linear subranges, and boundary
// tags (size words plus a physical-predecessor pointer in every block
// header) enable O(1) coalescing with both physical neighbours.
package tlsf

import (
	"fmt"
	"math/bits"

	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("tlsf", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return New(sink)
	})
}

const (
	// slLog2 is the second-level subdivision: 2^4 = 16 lists per first
	// level range.
	slLog2 = 4
	slSize = 1 << slLog2

	// flShift: sizes below 1<<flShift all live in first-level bin 0,
	// linearly subdivided. 1<<8 = 256 bytes.
	flShift = 8
	// flMax supports heaps up to 2^40 bytes.
	flMax = 40
	flLen = flMax - flShift + 1

	headerSize = 16 // [0:8] size|flags, [8:16] prevPhys
	minPayload = 16 // room for free-list links
	minBlock   = headerSize + minPayload

	base = 64 // guard: offset 0 never returned

	flagFree = 1 << 0

	nilRef = -1
)

// Alloc is the TLSF allocator.
type Alloc struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena

	flBitmap uint64
	slBitmap [flLen]uint32
	heads    [flLen][slSize]int

	end int // offset of the terminating sentinel block

	stats ukalloc.Stats
	used  int
}

// New returns an uninitialized TLSF allocator. sink may be nil.
func New(sink ukalloc.CostSink) *Alloc { return &Alloc{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *Alloc) Name() string { return "tlsf" }

func (a *Alloc) charge(c uint64) {
	if a.sink != nil {
		a.sink.Charge(c)
	}
}

// Init implements ukalloc.Allocator. TLSF initialization is O(1): clear
// two bitmaps and insert the whole heap as one free block.
func (a *Alloc) Init(arena *ukalloc.Arena) error {
	if arena.Len() < base+minBlock+headerSize {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	a.flBitmap = 0
	for i := range a.heads {
		a.slBitmap[i] = 0
		for j := range a.heads[i] {
			a.heads[i][j] = nilRef
		}
	}
	// Lay out one free block spanning [base, end) and a zero-size used
	// sentinel at the end so physical-next walks terminate.
	total := (arena.Len() - base - 2*headerSize) &^ 15
	a.end = base + headerSize + total
	a.setHeader(base, total, true)
	a.setPrevPhys(base, nilRef)
	a.setHeader(a.end, 0, false)
	a.setPrevPhys(a.end, base)
	a.insertFree(base, total)

	a.used = 0
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: total}
	a.charge(400) // bitmap clears + single insert
	return nil
}

// --- block accessors -------------------------------------------------
//
// Block layout at arena offset off:
//
//	off+0  : uint64 size<<8 | flags (payload size, excludes header)
//	off+8  : int64 offset of physical predecessor block (nilRef if first)
//	off+16 : payload; free blocks store nextFree/prevFree in first 16B

func (a *Alloc) setHeader(off, size int, free bool) {
	w := uint64(size) << 8
	if free {
		w |= flagFree
	}
	a.arena.Put64(off, w)
}

func (a *Alloc) header(off int) (size int, free bool) {
	w := a.arena.Get64(off)
	return int(w >> 8), w&flagFree != 0
}

func (a *Alloc) setPrevPhys(off, prev int) { a.arena.Put64(off+8, uint64(int64(prev))) }
func (a *Alloc) prevPhys(off int) int      { return int(int64(a.arena.Get64(off + 8))) }

func (a *Alloc) nextFree(off int) int   { return int(int64(a.arena.Get64(off + 16))) }
func (a *Alloc) prevFree(off int) int   { return int(int64(a.arena.Get64(off + 24))) }
func (a *Alloc) setNextFree(off, v int) { a.arena.Put64(off+16, uint64(int64(v))) }
func (a *Alloc) setPrevFree(off, v int) { a.arena.Put64(off+24, uint64(int64(v))) }

// physNext returns the offset of the physically following block.
func physNext(off, size int) int { return off + headerSize + size }

// --- two-level mapping -----------------------------------------------

// mappingInsert computes the (fl, sl) bin a free block of `size` belongs
// to.
func mappingInsert(size int) (fl, sl int) {
	if size < 1<<flShift {
		return 0, size >> (flShift - slLog2)
	}
	f := bits.Len(uint(size)) - 1
	sl = (size >> (f - slLog2)) & (slSize - 1)
	fl = f - flShift + 1
	if fl >= flLen {
		fl = flLen - 1
		sl = slSize - 1
	}
	return fl, sl
}

// mappingSearch rounds a request up so that any block found in the
// resulting bin is guaranteed large enough, then maps it.
func mappingSearch(size int) (fl, sl int, rounded int) {
	if size >= 1<<flShift {
		round := (1 << (bits.Len(uint(size)) - 1 - slLog2)) - 1
		if size <= (1<<(flMax+1))-round { // overflow guard
			size += round
			size &^= round
		}
	}
	fl, sl = mappingInsert(size)
	return fl, sl, size
}

func (a *Alloc) insertFree(off, size int) {
	fl, sl := mappingInsert(size)
	head := a.heads[fl][sl]
	a.setNextFree(off, head)
	a.setPrevFree(off, nilRef)
	if head != nilRef {
		a.setPrevFree(head, off)
	}
	a.heads[fl][sl] = off
	a.slBitmap[fl] |= 1 << uint(sl)
	a.flBitmap |= 1 << uint(fl)
	a.setHeader(off, size, true)
}

func (a *Alloc) removeFree(off, size int) {
	fl, sl := mappingInsert(size)
	next, prev := a.nextFree(off), a.prevFree(off)
	if prev == nilRef {
		a.heads[fl][sl] = next
		if next == nilRef {
			a.slBitmap[fl] &^= 1 << uint(sl)
			if a.slBitmap[fl] == 0 {
				a.flBitmap &^= 1 << uint(fl)
			}
		}
	} else {
		a.setNextFree(prev, next)
	}
	if next != nilRef {
		a.setPrevFree(next, prev)
	}
}

// findSuitable locates a free block for a request of `size` bytes using
// the two bitmap levels; O(1).
func (a *Alloc) findSuitable(size int) (off, blockSize int, ok bool) {
	fl, sl, _ := mappingSearch(size)
	slMap := a.slBitmap[fl] & (^uint32(0) << uint(sl))
	if slMap == 0 {
		flMap := a.flBitmap & (^uint64(0) << uint(fl+1))
		if flMap == 0 {
			return 0, 0, false
		}
		fl = bits.TrailingZeros64(flMap)
		slMap = a.slBitmap[fl]
	}
	sl = bits.TrailingZeros32(slMap)
	off = a.heads[fl][sl]
	if off == nilRef {
		return 0, 0, false
	}
	sz, _ := a.header(off)
	return off, sz, true
}

// Malloc implements ukalloc.Allocator.
func (a *Alloc) Malloc(n int) (ukalloc.Ptr, error) {
	if n < 0 {
		return 0, ukalloc.ErrNoMem
	}
	n = ukalloc.AlignUp(n, 16)
	if n < minPayload {
		n = minPayload
	}
	off, size, ok := a.findSuitable(n)
	if !ok || size < n {
		a.stats.Failures++
		return 0, ukalloc.ErrNoMem
	}
	a.removeFree(off, size)
	a.splitIfWorthwhile(off, size, n)
	a.accountAlloc(a.handOut(off))
	a.charge(60)
	return ukalloc.Ptr(off + headerSize), nil
}

// handOut flags block off as allocated and marks its payload, which the
// caller is about to own and write; it returns the payload size.
func (a *Alloc) handOut(off int) int {
	sz, _ := a.header(off)
	a.setHeader(off, sz, false)
	a.arena.Mark(off+headerSize, sz)
	return sz
}

// splitIfWorthwhile trims block (off,size) down to `need` payload bytes,
// inserting the remainder as a new free block when it can hold minBlock.
func (a *Alloc) splitIfWorthwhile(off, size, need int) {
	if size-need < minBlock {
		return
	}
	restOff := off + headerSize + need
	restSize := size - need - headerSize
	a.setHeader(off, need, false)
	a.setHeader(restOff, restSize, true)
	a.setPrevPhys(restOff, off)
	next := physNext(restOff, restSize)
	if next <= a.end {
		a.setPrevPhys(next, restOff)
	}
	a.insertFree(restOff, restSize)
}

// Free implements ukalloc.Allocator.
func (a *Alloc) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	off := int(p) - headerSize
	if off < base || off >= a.end {
		return ukalloc.ErrBadPointer
	}
	size, free := a.header(off)
	if free || size <= 0 {
		return ukalloc.ErrBadPointer
	}
	a.accountFree(size)
	off, size = a.coalesce(off, size)
	a.insertFree(off, size)
	a.stats.Frees++
	a.charge(60)
	return nil
}

// coalesce merges block (off,size) with free physical neighbours.
func (a *Alloc) coalesce(off, size int) (int, int) {
	// Merge with next.
	next := physNext(off, size)
	if next < a.end {
		nsz, nfree := a.header(next)
		if nfree {
			a.removeFree(next, nsz)
			size += headerSize + nsz
		}
	}
	// Merge with previous.
	if prev := a.prevPhys(off); prev != nilRef {
		psz, pfree := a.header(prev)
		if pfree {
			a.removeFree(prev, psz)
			size += headerSize + psz
			off = prev
		}
	}
	a.setHeader(off, size, true)
	if n := physNext(off, size); n <= a.end {
		a.setPrevPhys(n, off)
	}
	return off, size
}

// Realloc implements ukalloc.Allocator.
func (a *Alloc) Realloc(p ukalloc.Ptr, n int) (ukalloc.Ptr, error) {
	if p.IsNil() {
		return a.Malloc(n)
	}
	if n == 0 {
		return 0, a.Free(p)
	}
	off := int(p) - headerSize
	size, free := a.header(off)
	if free || off < base {
		return 0, ukalloc.ErrBadPointer
	}
	n8 := ukalloc.AlignUp(n, 16)
	if n8 <= size {
		return p, nil // shrink in place (no split for simplicity)
	}
	// Try growing into a free successor.
	next := physNext(off, size)
	if next < a.end {
		nsz, nfree := a.header(next)
		if nfree && size+headerSize+nsz >= n8 {
			a.removeFree(next, nsz)
			merged := size + headerSize + nsz
			a.setHeader(off, merged, false)
			if nn := physNext(off, merged); nn <= a.end {
				a.setPrevPhys(nn, off)
			}
			a.splitIfWorthwhile(off, merged, n8)
			sz := a.handOut(off)
			a.used += sz - size
			a.stats.FreeBytes -= sz - size
			a.charge(80)
			return p, nil
		}
	}
	np, err := a.Malloc(n)
	if err != nil {
		return 0, err
	}
	a.arena.Copy(int(np), int(p), size)
	a.charge(uint64(size) / 16)
	return np, a.Free(p)
}

// Memalign implements ukalloc.Allocator. It over-allocates and trims the
// leading slack into a free block so the aligned pointer begins a real
// block with its own header.
func (a *Alloc) Memalign(align, n int) (ukalloc.Ptr, error) {
	if !ukalloc.IsPow2(align) {
		return 0, ukalloc.ErrBadAlign
	}
	if align <= ukalloc.MinAlign {
		return a.Malloc(n)
	}
	n = ukalloc.AlignUp(n, 16)
	if n < minPayload {
		n = minPayload
	}
	worst := n + align + minBlock
	off, size, ok := a.findSuitable(worst)
	if !ok || size < worst {
		a.stats.Failures++
		return 0, ukalloc.ErrNoMem
	}
	a.removeFree(off, size)
	payload := off + headerSize
	aligned := ukalloc.AlignUp(payload, align)
	for aligned-payload != 0 && aligned-payload < minBlock {
		aligned += align
	}
	if gap := aligned - payload; gap > 0 {
		// Split the leading gap into its own free block.
		gapSize := gap - headerSize
		a.setHeader(off, gapSize, true)
		newOff := off + headerSize + gapSize
		a.setHeader(newOff, size-gap, false)
		a.setPrevPhys(newOff, off)
		if nn := physNext(newOff, size-gap); nn <= a.end {
			a.setPrevPhys(nn, newOff)
		}
		a.insertFree(off, gapSize)
		off = newOff
		size -= gap
	}
	a.splitIfWorthwhile(off, size, n)
	a.accountAlloc(a.handOut(off))
	a.charge(100)
	return ukalloc.Ptr(off + headerSize), nil
}

func (a *Alloc) accountAlloc(sz int) {
	a.used += sz
	a.stats.Mallocs++
	a.stats.FreeBytes -= sz
	if a.used > a.stats.PeakUsed {
		a.stats.PeakUsed = a.used
	}
}

func (a *Alloc) accountFree(sz int) {
	a.used -= sz
	a.stats.FreeBytes += sz
}

// UsableSize implements ukalloc.Allocator.
func (a *Alloc) UsableSize(p ukalloc.Ptr) int {
	if p.IsNil() {
		return 0
	}
	off := int(p) - headerSize
	if off < base || off >= a.end {
		return 0
	}
	size, free := a.header(off)
	if free {
		return 0
	}
	return size
}

// Arena implements ukalloc.Allocator.
func (a *Alloc) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *Alloc) Stats() ukalloc.Stats { return a.stats }

// CheckConsistency walks the physical block chain and the free lists,
// verifying boundary tags and bitmap coherence. Tests call it after
// random workloads.
func (a *Alloc) CheckConsistency() error {
	prev := nilRef
	off := base
	for off < a.end {
		size, free := a.header(off)
		if size < 0 || off+headerSize+size > a.end {
			return errf("block %d size %d escapes heap end %d", off, size, a.end)
		}
		if got := a.prevPhys(off); got != prev {
			return errf("block %d prevPhys=%d want %d", off, got, prev)
		}
		if free {
			nsz, nfree := a.header(physNext(off, size))
			if nfree && physNext(off, size) != a.end {
				return errf("adjacent free blocks at %d and %d (size %d/%d)", off, physNext(off, size), size, nsz)
			}
		}
		prev = off
		off = physNext(off, size)
	}
	if off != a.end {
		return errf("phys walk ended at %d, want %d", off, a.end)
	}
	// Free-list/bitmap coherence.
	for fl := 0; fl < flLen; fl++ {
		for sl := 0; sl < slSize; sl++ {
			head := a.heads[fl][sl]
			inMap := a.slBitmap[fl]&(1<<uint(sl)) != 0
			if (head != nilRef) != inMap {
				return errf("bitmap mismatch fl=%d sl=%d head=%d inMap=%v", fl, sl, head, inMap)
			}
			for b := head; b != nilRef; b = a.nextFree(b) {
				size, free := a.header(b)
				if !free {
					return errf("allocated block %d on free list", b)
				}
				gfl, gsl := mappingInsert(size)
				if gfl != fl || gsl != sl {
					return errf("block %d size %d in bin (%d,%d) want (%d,%d)", b, size, fl, sl, gfl, gsl)
				}
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("tlsf: "+format, args...)
}
