package ukalloc

import (
	"encoding/binary"
	"math/bits"
)

// PageSize is the granularity of an Arena's dirty set: one guest page.
const PageSize = 1 << pageShift

const pageShift = 12

// Arena is a guest heap region together with its dirty set: one bit per
// page, set before any byte of that page can become non-zero. The two
// travel as one value — through Init, through a re-Init over the same
// region, onto a boot context's free list — so that Scrub can return
// the region to all-zero at a cost proportional to the pages written,
// not to the size of the heap.
//
// Every write goes through a method that marks: Put64 and Copy for
// allocator metadata and moved payloads, Mark for a block an allocator
// hands out (the caller then writes it through Bytes). The invariant
// the allocator fuzzer checks after every operation is that a page
// outside the dirty set reads zero.
type Arena struct {
	mem   []byte
	dirty []uint64
}

// NewArena returns an all-zero arena of n bytes with an empty dirty set.
func NewArena(n int) *Arena {
	pages := (n + PageSize - 1) >> pageShift
	return &Arena{mem: make([]byte, n), dirty: make([]uint64, (pages+63)/64)}
}

// Len is the arena size in bytes.
func (a *Arena) Len() int { return len(a.mem) }

// Bytes returns the arena memory, for reading and for writing inside a
// range Mark already covers.
func (a *Arena) Bytes() []byte { return a.mem }

// Get64 loads the little-endian word at off.
func (a *Arena) Get64(off int) uint64 { return binary.LittleEndian.Uint64(a.mem[off:]) }

// Put64 stores v little-endian at off and marks the page (or, for an
// unaligned store, the two pages) it lands on.
func (a *Arena) Put64(off int, v uint64) {
	binary.LittleEndian.PutUint64(a.mem[off:], v)
	p, q := off>>pageShift, (off+7)>>pageShift
	a.dirty[p>>6] |= 1 << (p & 63)
	if q != p {
		a.dirty[q>>6] |= 1 << (q & 63)
	}
}

// Copy moves n bytes from src to dst within the arena and marks the
// destination.
func (a *Arena) Copy(dst, src, n int) {
	copy(a.mem[dst:dst+n], a.mem[src:src+n])
	a.Mark(dst, n)
}

// Mark adds the pages of [off, off+n) to the dirty set.
func (a *Arena) Mark(off, n int) {
	if n <= 0 {
		return
	}
	lo, hi := off>>pageShift, (off+n-1)>>pageShift
	if lo == hi {
		a.dirty[lo>>6] |= 1 << (lo & 63)
		return
	}
	for w := lo >> 6; w <= hi>>6; w++ {
		mask := ^uint64(0)
		if w == lo>>6 {
			mask <<= lo & 63
		}
		if w == hi>>6 {
			mask &= ^uint64(0) >> (63 - hi&63)
		}
		a.dirty[w] |= mask
	}
}

// Marked reports whether page is in the dirty set.
func (a *Arena) Marked(page int) bool { return a.dirty[page>>6]&(1<<(page&63)) != 0 }

// Scrub zeroes every marked page, one clear per run of adjacent pages,
// and empties the dirty set: the arena is all-zero again.
func (a *Arena) Scrub() {
	for w, word := range a.dirty {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> lo))
			start := (w<<6 + lo) << pageShift
			clear(a.mem[start:min(start+run<<pageShift, len(a.mem))])
			word &^= (1<<run - 1) << lo
		}
		a.dirty[w] = 0
	}
}
