// Package bootalloc implements ukalloc's region allocator for the boot
// path (§5.5 of the paper): a bump-pointer allocator with near-zero
// initialization cost and no support for reclaiming individual frees.
// The paper uses it to demonstrate the fastest possible boot (Fig 14:
// 0.49ms nginx boot vs 3.07ms with the buddy allocator).
package bootalloc

import (
	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("bootalloc", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return New(sink)
	})
}

// headerSize precedes each allocation and records its usable size so
// UsableSize and Realloc work.
const headerSize = 16

// guard reserves the front of the arena so offset 0 is never a valid
// allocation.
const guard = 64

// Alloc is the boot region allocator.
type Alloc struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena
	brk   int // next free offset
	stats ukalloc.Stats
}

// New returns an uninitialized boot allocator. sink may be nil.
func New(sink ukalloc.CostSink) *Alloc { return &Alloc{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *Alloc) Name() string { return "bootalloc" }

func (a *Alloc) charge(c uint64) {
	if a.sink != nil {
		a.sink.Charge(c)
	}
}

// Init implements ukalloc.Allocator. A region allocator only records the
// arena bounds: this is what makes it the fastest-booting backend.
func (a *Alloc) Init(arena *ukalloc.Arena) error {
	if arena.Len() < guard+headerSize+ukalloc.MinAlign {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	a.brk = guard
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: arena.Len() - guard}
	a.charge(50) // a couple of stores
	return nil
}

// Malloc implements ukalloc.Allocator.
func (a *Alloc) Malloc(n int) (ukalloc.Ptr, error) {
	return a.alloc(ukalloc.MinAlign, n)
}

func (a *Alloc) alloc(align, n int) (ukalloc.Ptr, error) {
	if n < 0 {
		return 0, ukalloc.ErrNoMem
	}
	if n == 0 {
		n = 1
	}
	hdr := ukalloc.AlignUp(a.brk, ukalloc.MinAlign)
	p := ukalloc.AlignUp(hdr+headerSize, align)
	end := p + n
	if end > a.arena.Len() {
		a.stats.Failures++
		return 0, ukalloc.ErrNoMem
	}
	a.arena.Put64(p-headerSize, uint64(n))
	a.arena.Mark(p, n)
	a.brk = end
	a.stats.Mallocs++
	a.stats.FreeBytes = a.arena.Len() - a.brk
	if used := a.brk; used > a.stats.PeakUsed {
		a.stats.PeakUsed = used
	}
	a.charge(20)
	return ukalloc.Ptr(p), nil
}

func (a *Alloc) size(p ukalloc.Ptr) int {
	return int(a.arena.Get64(int(p) - headerSize))
}

// Free implements ukalloc.Allocator. Individual frees are dropped; the
// region is reclaimed wholesale when the boot allocator is abandoned,
// exactly like Unikraft's boot region allocator.
func (a *Alloc) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	if int(p) < guard+headerSize || int(p) >= a.arena.Len() {
		return ukalloc.ErrBadPointer
	}
	a.stats.Frees++
	a.charge(4)
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
	old := a.size(p)
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

// UsableSize implements ukalloc.Allocator.
func (a *Alloc) UsableSize(p ukalloc.Ptr) int {
	if p.IsNil() {
		return 0
	}
	return a.size(p)
}

// Arena implements ukalloc.Allocator.
func (a *Alloc) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *Alloc) Stats() ukalloc.Stats { return a.stats }
