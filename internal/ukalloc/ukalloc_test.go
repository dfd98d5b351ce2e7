package ukalloc_test

import (
	"testing"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/ukalloc"
)

func TestBackendRegistry(t *testing.T) {
	names := ukalloc.BackendNames()
	want := []string{"bootalloc", "buddy", "mimalloc", "tinyalloc", "tlsf"}
	if len(names) != len(want) {
		t.Fatalf("backends = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("backends = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		a, err := ukalloc.NewBackend(n, nil)
		if err != nil {
			t.Fatalf("NewBackend(%s): %v", n, err)
		}
		if a.Name() != n {
			t.Fatalf("backend %s reports name %s", n, a.Name())
		}
	}
	if _, err := ukalloc.NewBackend("jemalloc", nil); err == nil {
		t.Fatal("unknown backend constructed")
	}
}

func TestMultiplexingRegistry(t *testing.T) {
	// §3.2: multiple allocators in one image, each with its own region;
	// the first registered is the default (the boot-time allocator).
	var reg ukalloc.Registry
	if reg.Default() != nil {
		t.Fatal("empty registry has a default")
	}
	boot, _ := ukalloc.NewBackend("bootalloc", nil)
	boot.Init(ukalloc.NewArena(1 << 20))
	main, _ := ukalloc.NewBackend("tlsf", nil)
	main.Init(ukalloc.NewArena(4 << 20))

	reg.Register(boot)
	reg.Register(main)
	if reg.Default() != boot {
		t.Fatal("first registered not default")
	}
	// The GC/main allocator takes over after boot (the mimalloc
	// two-phase pattern from §3.2).
	if !reg.SetDefault(main) {
		t.Fatal("SetDefault failed")
	}
	if reg.Default() != main {
		t.Fatal("default not switched")
	}
	other, _ := ukalloc.NewBackend("tlsf", nil)
	if reg.SetDefault(other) {
		t.Fatal("unregistered allocator accepted as default")
	}
	if reg.ByName("bootalloc") != boot || reg.ByName("nope") != nil {
		t.Fatal("ByName broken")
	}
	if len(reg.All()) != 2 {
		t.Fatalf("All = %d", len(reg.All()))
	}
	// Both allocators serve from their own regions.
	p1, err := reg.ByName("bootalloc").Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := reg.Default().Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p1.IsNil() || p2.IsNil() {
		t.Fatal("nil allocations")
	}
}

func TestHelpers(t *testing.T) {
	if !ukalloc.IsPow2(1) || !ukalloc.IsPow2(4096) || ukalloc.IsPow2(0) || ukalloc.IsPow2(3) {
		t.Fatal("IsPow2 broken")
	}
	if ukalloc.AlignUp(1, 16) != 16 || ukalloc.AlignUp(16, 16) != 16 || ukalloc.AlignUp(17, 16) != 32 {
		t.Fatal("AlignUp broken")
	}
}

func TestDuplicateBackendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	ukalloc.RegisterBackend("tlsf", nil)
}
