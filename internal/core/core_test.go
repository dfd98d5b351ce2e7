package core

import (
	"strings"
	"testing"
)

func TestCatalogCalibration(t *testing.T) {
	c := DefaultCatalog()
	// Every spec'd library present, symbol totals match the spec.
	for name, sp := range specs {
		lib, ok := c.Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if got := lib.SizeOf(SymUsed); got != sp.used {
			t.Errorf("%s used = %d, want %d", name, got, sp.used)
		}
		if got := lib.SizeOf(SymUnused); got != sp.unused {
			t.Errorf("%s unused = %d, want %d", name, got, sp.unused)
		}
		if got := lib.SizeOf(SymComdat); got != sp.comdat {
			t.Errorf("%s comdat = %d, want %d", name, got, sp.comdat)
		}
		if lib.Size() != sp.used+sp.unused+sp.comdat {
			t.Errorf("%s total mismatch", name)
		}
	}
}

// TestUsedChainReachable: every used symbol is reachable from the
// library entry via refs (the invariant DCE relies on).
func TestUsedChainReachable(t *testing.T) {
	c := DefaultCatalog()
	for _, name := range c.Names() {
		lib, _ := c.Get(name)
		byName := map[string]Symbol{}
		for _, s := range lib.Symbols {
			byName[s.Name] = s
		}
		reached := map[string]bool{}
		queue := []string{lib.EntrySymbol()}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if reached[n] {
				continue
			}
			reached[n] = true
			queue = append(queue, byName[n].Refs...)
		}
		for _, s := range lib.Symbols {
			if s.Kind == SymUsed && !reached[s.Name] {
				t.Fatalf("%s: used symbol %s unreachable from entry", name, s.Name)
			}
			if s.Kind != SymUsed && reached[s.Name] {
				t.Fatalf("%s: kind-%d symbol %s reachable", name, int(s.Kind), s.Name)
			}
		}
	}
}

func TestClosureDefaults(t *testing.T) {
	c := DefaultCatalog()
	// Ambiguous API without explicit provider fails with a helpful error.
	_, err := c.Closure([]string{"ukboot"}, map[string]string{"plat": "plat-kvm"})
	if err == nil || !strings.Contains(err.Error(), "ukalloc") {
		t.Fatalf("ambiguous ukalloc err = %v", err)
	}
	// Fully specified succeeds.
	libs, err := c.Closure([]string{"ukboot"}, map[string]string{
		"plat": "plat-kvm", "ukalloc": "ukalloctlsf",
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, l := range libs {
		names[l.Name] = true
	}
	for _, want := range []string{"ukboot", "ukargparse", "plat-kvm", "ukalloctlsf", "ukalloc"} {
		if !names[want] {
			t.Errorf("closure missing %s: %v", want, names)
		}
	}
	// Wrong provider for an API is rejected.
	if _, err := c.Closure([]string{"ukboot"}, map[string]string{
		"plat": "plat-kvm", "ukalloc": "musl",
	}); err == nil {
		t.Error("musl accepted as ukalloc provider")
	}
	// Unknown root.
	if _, err := c.Closure([]string{"no-such-lib"}, nil); err == nil {
		t.Error("unknown root accepted")
	}
}

func TestProviders(t *testing.T) {
	c := DefaultCatalog()
	allocs := c.Providers("ukalloc")
	if len(allocs) != 5 {
		t.Fatalf("ukalloc providers = %d, want the 5 backends (buddy/tlsf/tiny/mimalloc/boot)", len(allocs))
	}
	scheds := c.Providers("uksched")
	if len(scheds) != 2 {
		t.Fatalf("uksched providers = %d", len(scheds))
	}
	libcs := c.Providers("libc")
	if len(libcs) != 3 {
		t.Fatalf("libc providers = %d", len(libcs))
	}
}

func TestAppProfiles(t *testing.T) {
	if len(Apps()) < 6 {
		t.Fatalf("apps = %d", len(Apps()))
	}
	for _, a := range Apps() {
		if _, ok := AppByName(a.Name); !ok {
			t.Errorf("AppByName(%s) failed", a.Name)
		}
		c := DefaultCatalog()
		if _, ok := c.Get(a.Lib); !ok {
			t.Errorf("%s references missing lib %s", a.Name, a.Lib)
		}
	}
	if _, ok := AppByName("nope"); ok {
		t.Error("AppByName accepted garbage")
	}
}
