package ukalloc

import (
	"fmt"
	"sort"
)

// providerBackends maps catalog provider library names (the Kconfig-level
// micro-library identifiers in internal/core's catalog) to the backend
// names registered with RegisterBackend. It is the single source of truth
// for the catalog-provider -> allocator-backend correspondence; the build
// pipeline, the boot pipeline and the experiment harness all resolve
// through it.
var providerBackends = map[string]string{
	"ukallocbuddy": "buddy",
	"ukalloctlsf":  "tlsf",
	"ukalloctiny":  "tinyalloc",
	"ukallocmim":   "mimalloc",
	"ukallocboot":  "bootalloc",
}

// BackendForProvider maps a catalog ukalloc provider ("ukalloctlsf") to
// its backend name ("tlsf").
func BackendForProvider(provider string) (string, bool) {
	b, ok := providerBackends[provider]
	return b, ok
}

// ProviderForBackend maps a backend name ("tlsf") back to its catalog
// provider library ("ukalloctlsf"). Backends registered at run time
// without a catalog library have no provider.
func ProviderForBackend(backend string) (string, bool) {
	for p, b := range providerBackends {
		if b == backend {
			return p, true
		}
	}
	return "", false
}

// ProviderNames lists the catalog provider libraries, sorted.
func ProviderNames() []string {
	names := make([]string, 0, len(providerBackends))
	for p := range providerBackends {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// ResolveBackend accepts either a backend name ("tlsf") or a catalog
// provider name ("ukalloctlsf") and returns the backend name, erroring
// with the full set of valid choices otherwise.
func ResolveBackend(name string) (string, error) {
	if b, ok := providerBackends[name]; ok {
		return b, nil
	}
	if _, ok := factories[name]; ok {
		return name, nil
	}
	return "", fmt.Errorf("ukalloc: unknown allocator %q (backends %v, providers %v)",
		name, BackendNames(), ProviderNames())
}

// NewInitialized constructs a backend by name (backend or catalog
// provider) and initializes it over a fresh heap of heapBytes. It is the
// "make me a working allocator" path of the experiment harness and
// library users.
func NewInitialized(name string, sink CostSink, heapBytes int) (Allocator, error) {
	return NewOver(name, sink, NewArena(heapBytes))
}

// NewOver constructs a backend by name and initializes it over arena,
// which must be all-zero or, for a re-Init over a live heap, carry the
// marks of whatever wrote it. The boot pipeline passes arenas it
// recycles; VM.Reset passes the arena the instance already owns.
func NewOver(name string, sink CostSink, arena *Arena) (Allocator, error) {
	backend, err := ResolveBackend(name)
	if err != nil {
		return nil, err
	}
	a, err := NewBackend(backend, sink)
	if err != nil {
		return nil, err
	}
	if err := a.Init(arena); err != nil {
		return nil, fmt.Errorf("ukalloc: init %s over %d-byte heap: %w", backend, arena.Len(), err)
	}
	return a, nil
}
