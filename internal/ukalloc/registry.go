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
