package core

import (
	"sort"
	"strings"
	"testing"
)

func TestAppsSortedDeterministic(t *testing.T) {
	names := AppNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("AppNames() not sorted: %v", names)
	}
	for i := 0; i < 3; i++ {
		if got := strings.Join(AppNames(), ","); got != strings.Join(names, ",") {
			t.Fatalf("AppNames() unstable: %v vs %v", got, names)
		}
	}
	apps := sortedApps()
	for i := 1; i < len(apps); i++ {
		if apps[i-1].Name >= apps[i].Name {
			t.Errorf("sortedApps() not sorted at %d: %s >= %s", i, apps[i-1].Name, apps[i].Name)
		}
	}
}

func TestRegisterAppValidation(t *testing.T) {
	if err := RegisterApp(AppProfile{}); err == nil {
		t.Error("nameless profile registered")
	}
	if err := RegisterApp(AppProfile{Name: "noprofile-lib"}); err == nil {
		t.Error("libless profile registered")
	}
	if err := RegisterApp(AppProfile{Name: "ghost", Lib: "app-ghost"}); err == nil {
		t.Error("profile with unknown library registered")
	}
	if err := RegisterApp(AppProfile{Name: "nginx", Lib: "app-nginx"}); err == nil {
		t.Error("duplicate of built-in app registered")
	}
}

func TestRegisterLibraryValidation(t *testing.T) {
	if err := RegisterLibrary("", LibraryConfig{UsedBytes: 1}); err == nil {
		t.Error("nameless library registered")
	}
	if err := RegisterLibrary("app-empty", LibraryConfig{}); err == nil {
		t.Error("zero-size library registered")
	}
	if err := RegisterLibrary("lwip", LibraryConfig{UsedBytes: 1}); err == nil {
		t.Error("built-in name shadowed")
	}
}

// register tolerates "already registered" so the test is idempotent
// under -count=N (the registry is process-global).
func register(t *testing.T, err error) {
	t.Helper()
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestRegisterCustomAppInCatalog(t *testing.T) {
	before := SharedCatalog()
	register(t, RegisterLibrary("app-regtest", LibraryConfig{
		UsedBytes: 8 << 10, UnusedBytes: 4 << 10, App: true,
		Needs: []string{"libc"},
		Deps:  []string{"ukboot"},
	}))
	if err := RegisterLibrary("app-regtest", LibraryConfig{UsedBytes: 1}); err == nil {
		t.Error("duplicate custom library registered")
	}
	register(t, RegisterApp(AppProfile{Name: "regtest", Lib: "app-regtest"}))
	p, ok := AppByName("regtest")
	if !ok {
		t.Fatal("registered app not found")
	}
	// Empty libc/allocator defaulted.
	if p.Libc != "nolibc" || p.Allocator != "ukalloctlsf" {
		t.Errorf("defaults not applied: %+v", p)
	}
	// The library lands in freshly built catalogs and resolves a closure.
	c := DefaultCatalog()
	if _, ok := c.Get("app-regtest"); !ok {
		t.Fatal("registered library missing from DefaultCatalog")
	}
	// The shared catalog built before the registration is replaced, and
	// its successor is built once.
	shared := SharedCatalog()
	if _, ok := shared.Get("app-regtest"); !ok {
		t.Fatal("registered library missing from SharedCatalog")
	}
	if _, had := before.Get("app-regtest"); !had && shared == before {
		t.Error("SharedCatalog kept the catalog of the generation before RegisterLibrary")
	}
	if SharedCatalog() != shared {
		t.Error("SharedCatalog rebuilt without a registration")
	}
	closure, err := c.Closure([]string{p.Lib}, map[string]string{
		"libc": p.Libc, "ukalloc": p.Allocator, "plat": "plat-kvm",
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range closure {
		if l.Name == "app-regtest" {
			found = l.IsApp
		}
	}
	if !found {
		t.Errorf("closure %v missing app-regtest app library", len(closure))
	}
}

func TestSharedCatalogReadOnly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add to the shared catalog did not panic")
		}
	}()
	SharedCatalog().Add(&Library{Name: "app-readonly"})
}
