// Package bootalloc implements ukalloc's region allocator for the boot
// path (§5.5 of the paper): a bump-pointer allocator with near-zero
// initialization cost and no support for reclaiming individual frees.
// The paper uses it to demonstrate the fastest possible boot (Fig 14:
// 0.49ms nginx boot vs 3.07ms with the buddy allocator).
package bootalloc

import (
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

func init() {
	ukalloc.RegisterBackend("bootalloc", func(sink ukalloc.CostSink) ukalloc.Allocator {
		return newAllocator(sink)
	})
}

// headerSize precedes each allocation and records its usable size so
// UsableSize and Realloc work.
const headerSize = 16

// guard reserves the front of the arena so offset 0 is never a valid
// allocation.
const guard = 64

// allocator is the boot region allocator.
type allocator struct {
	sink  ukalloc.CostSink
	arena *ukalloc.Arena
	brk   int // next free offset
	stats ukalloc.Stats
}

// newAllocator returns an uninitialized boot allocator; sink must not be nil.
func newAllocator(sink ukalloc.CostSink) *allocator { return &allocator{sink: sink} }

// Name implements ukalloc.Allocator.
func (a *allocator) Name() string { return "bootalloc" }

// Init implements ukalloc.Allocator. A region allocator only records the
// arena bounds: this is what makes it the fastest-booting backend.
func (a *allocator) Init(arena *ukalloc.Arena) error {
	if arena.Len() < guard+headerSize+ukalloc.MinAlign {
		return ukalloc.ErrHeapTooSmall
	}
	a.arena = arena
	a.brk = guard
	a.stats = ukalloc.Stats{HeapBytes: arena.Len(), FreeBytes: arena.Len() - guard}
	a.sink.Pay(sim.CostBootallocInit, 1)
	return nil
}

// Malloc implements ukalloc.Allocator.
func (a *allocator) Malloc(n int) (ukalloc.Ptr, error) {
	return a.alloc(ukalloc.MinAlign, n)
}

func (a *allocator) alloc(align, n int) (ukalloc.Ptr, error) {
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
	a.sink.Pay(sim.CostBootallocMalloc, 1)
	return ukalloc.Ptr(p), nil
}

func (a *allocator) size(p ukalloc.Ptr) int {
	return int(a.arena.Get64(int(p) - headerSize))
}

// Free implements ukalloc.Allocator. Individual frees are dropped; the
// region is reclaimed wholesale when the boot allocator is abandoned,
// exactly like Unikraft's boot region allocator.
func (a *allocator) Free(p ukalloc.Ptr) error {
	if p.IsNil() {
		return nil
	}
	if int(p) < guard+headerSize || int(p) >= a.arena.Len() {
		return ukalloc.ErrBadPointer
	}
	a.stats.Frees++
	a.sink.Pay(sim.CostBootallocFree, 1)
	return nil
}

// Realloc implements ukalloc.Allocator.
func (a *allocator) Realloc(p ukalloc.Ptr, n int) (ukalloc.Ptr, error) {
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
	a.sink.Pay(sim.CostCopy, uint64(old))
	return np, a.Free(p)
}

// Memalign implements ukalloc.Allocator.
func (a *allocator) Memalign(align, n int) (ukalloc.Ptr, error) {
	if !ukalloc.IsPow2(align) {
		return 0, ukalloc.ErrBadAlign
	}
	if align < ukalloc.MinAlign {
		align = ukalloc.MinAlign
	}
	return a.alloc(align, n)
}

// UsableSize implements ukalloc.Allocator.
func (a *allocator) UsableSize(p ukalloc.Ptr) int {
	if p.IsNil() {
		return 0
	}
	return a.size(p)
}

// Arena implements ukalloc.Allocator.
func (a *allocator) Arena() *ukalloc.Arena { return a.arena }

// Stats implements ukalloc.Allocator.
func (a *allocator) Stats() ukalloc.Stats { return a.stats }
