package ukalloc

// Registry is the per-unikernel multiplexing facility from §3.2: several
// initialized allocators can coexist in one image, each with its own
// region, and one of them is the default that backs malloc()-level
// requests from the libc layer. No boot, pool or SDK path registers a
// second allocator, so only TestMultiplexingRegistry uses it.
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
