package ukalloc

import (
	"fmt"
	"sort"
)

// Factory constructs an uninitialized allocator backend paying sink,
// which is never nil.
type Factory func(sink CostSink) Allocator

var factories = map[string]Factory{}

// RegisterBackend makes a backend constructor available by name. It is
// called from backend package init functions, mirroring how Unikraft
// micro-libraries register with the ukalloc interface at link time. It
// panics on duplicate names, which would indicate a build-system bug.
func RegisterBackend(name string, f Factory) {
	if _, dup := factories[name]; dup {
		panic("ukalloc: duplicate backend " + name)
	}
	factories[name] = f
}

// NewBackend constructs a registered backend by name, paying sink, or
// nothing when sink is nil.
func NewBackend(name string, sink CostSink) (Allocator, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("ukalloc: unknown backend %q (have %v)", name, BackendNames())
	}
	if sink == nil {
		sink = discard{}
	}
	return f(sink), nil
}

// BackendNames lists registered backends in sorted order.
func BackendNames() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry is the per-unikernel multiplexing facility from §3.2: several
// initialized allocators can coexist in one image, each with its own
// region, and one of them is the default that backs malloc()-level
// requests from the libc layer.
type Registry struct {
	allocs []Allocator
	def    Allocator
}

// Register adds an initialized allocator to the registry. The first
// registered allocator becomes the default, as in Unikraft's boot
// sequence where the early allocator registers first.
func (r *Registry) Register(a Allocator) {
	r.allocs = append(r.allocs, a)
	if r.def == nil {
		r.def = a
	}
}

// SetDefault makes a previously registered allocator the default. It
// returns false if a was never registered.
func (r *Registry) SetDefault(a Allocator) bool {
	for _, x := range r.allocs {
		if x == a {
			r.def = a
			return true
		}
	}
	return false
}

// Default returns the default allocator, or nil before any registration
// (allocations before allocator init are a boot bug, and callers treat
// nil as such).
func (r *Registry) Default() Allocator { return r.def }

// All returns the registered allocators in registration order.
func (r *Registry) All() []Allocator { return r.allocs }

// ByName returns the first registered allocator with the given backend
// name, or nil.
func (r *Registry) ByName(name string) Allocator {
	for _, a := range r.allocs {
		if a.Name() == name {
			return a
		}
	}
	return nil
}
