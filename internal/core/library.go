// Package core implements the paper's primary contribution: the
// micro-library model that the build system composes into specialized
// unikernel images (§3). The paper selects libraries through a Kconfig
// menu; here the typed Spec is that selection, resolved into
// ukbuild.Options and this catalog's provider choices, so there is no
// second configuration schema.
//
// Every OS primitive is a stand-alone micro-library with explicit
// provided APIs and dependencies; APIs are micro-libraries themselves,
// so a build can swap any provider (five allocators behind ukalloc, two
// schedulers behind uksched, two libc flavors, ...). The catalog in this
// package mirrors the library set of the paper's Figures 2-4, and its
// symbol tables are calibrated so the linker in internal/ukbuild
// reproduces the Figure 8 image sizes.
package core

import (
	"fmt"
	"sort"
)

// SymKind classifies a symbol for link-time treatment.
type SymKind int

// Symbol kinds.
const (
	// SymUsed code/data referenced from the image entry closure.
	SymUsed SymKind = iota
	// SymUnused is static-library baggage never referenced (removed by
	// dead code elimination, i.e. --gc-sections).
	SymUnused
	// SymComdat is an out-of-line copy of an inline helper that every
	// call site actually inlines: LTO proves it unreferenced and drops
	// it; section GC (DCE) also removes it. Only a default link keeps
	// it.
	SymComdat
)

// Symbol is one linker-visible code/data unit.
type Symbol struct {
	Name string
	Size int
	Kind SymKind
	// Refs are names of symbols this one references (the call graph
	// edges that reachability-based DCE walks).
	Refs []string
}

// Library is one micro-library.
type Library struct {
	// Name is the Kconfig-level identifier (e.g. "ukallocbuddy").
	Name string
	// Provides lists API names this library implements ("ukalloc",
	// "uksched", "libc", ...). Libraries providing the same API are
	// interchangeable (§3: "All micro-libraries that implement the same
	// API are interchangeable").
	Provides []string
	// Needs lists APIs that must be satisfied by some selected provider.
	Needs []string
	// Deps are hard library dependencies (always linked in).
	Deps []string
	// Platform restricts the library to one platform ("" = generic).
	Platform string
	// IsApp marks application libraries.
	IsApp bool
	// Symbols is the library's object contents.
	Symbols []Symbol
}

// Size sums all symbol sizes (the default-link contribution).
func (l *Library) Size() int {
	t := 0
	for _, s := range l.Symbols {
		t += s.Size
	}
	return t
}

// SizeOf sums symbols of one kind.
func (l *Library) SizeOf(kind SymKind) int {
	t := 0
	for _, s := range l.Symbols {
		if s.Kind == kind {
			t += s.Size
		}
	}
	return t
}

// EntrySymbol returns the library's root symbol name (the constructor /
// API entry the image references).
func (l *Library) EntrySymbol() string { return l.Name + ".init" }

// Catalog is a set of registered libraries.
type Catalog struct {
	libs map[string]*Library
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{libs: map[string]*Library{}} }

// Add registers a library; duplicate names are a configuration bug.
func (c *Catalog) Add(l *Library) {
	if _, dup := c.libs[l.Name]; dup {
		panic("core: duplicate library " + l.Name)
	}
	c.libs[l.Name] = l
}

// Get returns a library by name.
func (c *Catalog) Get(name string) (*Library, bool) {
	l, ok := c.libs[name]
	return l, ok
}

// Names lists registered libraries, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.libs))
	for n := range c.libs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Providers lists libraries providing an API, sorted.
func (c *Catalog) Providers(api string) []*Library {
	var out []*Library
	for _, l := range c.libs {
		for _, p := range l.Provides {
			if p == api {
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Closure resolves the transitive dependency set for the given root
// libraries under a selection of API providers. It verifies that every
// needed API is satisfied by exactly one selected provider and returns
// the closure sorted by name.
func (c *Catalog) Closure(roots []string, providers map[string]string) ([]*Library, error) {
	seen := map[string]bool{}
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		if seen[name] {
			return nil
		}
		lib, ok := c.libs[name]
		if !ok {
			return fmt.Errorf("core: unknown library %q", name)
		}
		seen[name] = true
		order = append(order, name)
		for _, dep := range lib.Deps {
			if err := visit(dep); err != nil {
				return fmt.Errorf("%s -> %w", name, err)
			}
		}
		for _, api := range lib.Needs {
			prov, ok := providers[api]
			if !ok {
				avail := c.Providers(api)
				if len(avail) == 1 {
					prov = avail[0].Name // unambiguous default
				} else {
					names := make([]string, len(avail))
					for i, a := range avail {
						names[i] = a.Name
					}
					return fmt.Errorf("core: %s needs API %q: choose one of %v", name, api, names)
				}
			}
			p, ok := c.libs[prov]
			if !ok {
				return fmt.Errorf("core: provider %q for API %q not in catalog", prov, api)
			}
			if !provides(p, api) {
				return fmt.Errorf("core: %q does not provide API %q", prov, api)
			}
			if err := visit(prov); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	sort.Strings(order)
	out := make([]*Library, len(order))
	for i, n := range order {
		out[i] = c.libs[n]
	}
	return out, nil
}

func provides(l *Library, api string) bool {
	for _, p := range l.Provides {
		if p == api {
			return true
		}
	}
	return false
}
