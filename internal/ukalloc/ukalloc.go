// Package ukalloc is the memory-allocation API of the Unikraft
// reproduction, mirroring the paper's §3.2: a small internal allocation
// interface that multiplexes one or more pluggable allocator backends,
// each owning its own memory region.
//
// Allocators manage an Arena (a []byte region plus the set of its pages
// that have been written) and hand out Ptr values, which are byte
// offsets into that arena. Using offsets rather than raw Go
// pointers keeps every allocator implementation honest: all bookkeeping
// (headers, boundary tags, free lists) must live inside or alongside the
// arena exactly as it would in C, and property tests can verify that no
// two live allocations overlap.
package ukalloc

import (
	"errors"
	"fmt"

	"unikraft/internal/sim"
)

// Ptr is an allocation handle: a byte offset into the allocator's arena.
// The zero value is the nil pointer; no allocator ever returns offset 0
// (every backend reserves the front of its arena for private state or a
// guard region).
type Ptr int

// IsNil reports whether p is the nil allocation.
func (p Ptr) IsNil() bool { return p == 0 }

// Common allocator errors.
var (
	// ErrNoMem is returned when the arena cannot satisfy a request.
	ErrNoMem = errors.New("ukalloc: out of memory")
	// ErrBadPointer is returned when Free or Realloc receives a pointer
	// the allocator does not own or has already freed.
	ErrBadPointer = errors.New("ukalloc: bad pointer")
	// ErrBadAlign is returned by Memalign for a non-power-of-two
	// alignment.
	ErrBadAlign = errors.New("ukalloc: alignment not a power of two")
	// ErrHeapTooSmall is returned by Init when the arena cannot hold the
	// allocator's minimum metadata.
	ErrHeapTooSmall = errors.New("ukalloc: heap too small")
)

// Stats reports allocator health counters, in the spirit of
// uk_alloc_stats in upstream Unikraft.
type Stats struct {
	// HeapBytes is the total size of the arena the allocator manages.
	HeapBytes int
	// FreeBytes is the allocator's best estimate of allocatable bytes
	// remaining (excluding its own metadata and fragmentation holes it
	// cannot use).
	FreeBytes int
	// Mallocs and Frees count successful operations.
	Mallocs, Frees uint64
	// Failures counts allocation requests refused with ErrNoMem.
	Failures uint64
	// PeakUsed is the maximum of (HeapBytes - FreeBytes) observed.
	PeakUsed int
}

// CostSink is paid for allocator work, by row of sim's cost table. The
// boot pipeline and the experiment harness pass a *sim.Machine; unit
// tests and pure wall-clock benchmarks pass nil to NewBackend, which
// hands the backend a sink that pays nothing instead.
type CostSink interface {
	Pay(id sim.CostID, n uint64)
}

type discard struct{}

func (discard) Pay(sim.CostID, uint64) {}

// Allocator is the ukalloc backend interface (the paper's struct
// uk_alloc function table). All five paper backends implement it: buddy,
// TLSF, tinyalloc, mimalloc and the boot-time region allocator.
type Allocator interface {
	// Name returns the backend's registry name ("buddy", "tlsf", ...).
	Name() string

	// Init takes ownership of the arena and prepares internal state.
	// It must be called before any allocation. Calling it again, over
	// a scrubbed arena or over the same arena with its marks, discards
	// every earlier allocation and counter: the backend then behaves
	// exactly as a fresh one would, reusing its own bookkeeping
	// storage. Charged boot-time work goes to the allocator's
	// CostSink. A backend stores
	// into the arena only through its marking methods (Put64, Copy) and
	// marks every block it hands out or grows, so the arena's dirty set
	// always covers its non-zero bytes.
	Init(arena *Arena) error

	// Malloc allocates n bytes, aligned to at least MinAlign.
	Malloc(n int) (Ptr, error)

	// Free releases an allocation returned by Malloc, Realloc or
	// Memalign. Freeing the nil Ptr is a no-op returning nil.
	Free(p Ptr) error

	// Realloc resizes an allocation, preserving min(old, new) bytes of
	// content. Realloc(nil, n) behaves like Malloc(n); Realloc(p, 0)
	// behaves like Free(p) and returns the nil Ptr.
	Realloc(p Ptr, n int) (Ptr, error)

	// Memalign allocates n bytes aligned to align, which must be a
	// power of two.
	Memalign(align, n int) (Ptr, error)

	// UsableSize reports the usable payload size of a live allocation;
	// it is at least the size requested.
	UsableSize(p Ptr) int

	// Arena returns the managed memory and its dirty set.
	Arena() *Arena

	// Stats returns current counters.
	Stats() Stats
}

// MinAlign is the minimum alignment every backend guarantees for Malloc,
// matching the platform ABI the paper targets (x86-64: 16 bytes).
const MinAlign = 16

// Bytes returns the payload [p, p+n) of a live allocation as a slice of
// the allocator's arena. It panics if the range falls outside the arena;
// overlap with metadata or other allocations is the allocator's
// responsibility and is what the property tests verify. Like
// Arena.Bytes, the slice is valid only while a's arena is reachable.
func Bytes(a Allocator, p Ptr, n int) []byte {
	arena := a.Arena().Bytes()
	if p.IsNil() || int(p) < 0 || int(p)+n > len(arena) {
		panic(fmt.Sprintf("ukalloc: Bytes(%d, %d) out of arena [0,%d)", p, n, len(arena)))
	}
	return arena[int(p) : int(p)+n : int(p)+n]
}

// Calloc allocates n*size zeroed bytes from a.
func Calloc(a Allocator, n, size int) (Ptr, error) {
	if n < 0 || size < 0 {
		return 0, ErrNoMem
	}
	total := n * size
	if size != 0 && total/size != n {
		return 0, ErrNoMem // multiplication overflow
	}
	p, err := a.Malloc(total)
	if err != nil {
		return 0, err
	}
	b := Bytes(a, p, total)
	for i := range b {
		b[i] = 0
	}
	return p, nil
}

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n, align int) int { return (n + align - 1) &^ (align - 1) }

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
