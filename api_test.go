package unikraft

// Tests for the Spec/Runtime SDK: validation errors, functional options,
// zero-value defaults, deprecated-wrapper equivalence, and end-to-end
// build+boot of an app registered at run time.

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSpecOptions(t *testing.T) {
	s := NewSpec("nginx",
		WithVMM("firecracker"),
		WithAllocator("tlsf"),
		WithMemory(128<<20),
		WithDCE(), WithLTO(),
		WithDynamicPageTable(),
		With9pfs(),
		WithExtraLibs("shfs"))
	if s.App != "nginx" || s.VMM != "firecracker" || s.Allocator != "tlsf" ||
		s.MemBytes != 128<<20 || !s.DCE || !s.LTO ||
		!s.DynamicPageTable || !s.Mount9pfs ||
		len(s.ExtraLibs) != 1 || s.ExtraLibs[0] != "shfs" {
		t.Errorf("options not applied: %+v", s)
	}
	if got := NewSpec("redis", WithPlatform(PlatformXen)).Platform; got != "xen" {
		t.Errorf("WithPlatform = %q", got)
	}
	if s := NewSpec("redis", WithBuildFlags(true, false)); !s.DCE || s.LTO {
		t.Errorf("WithBuildFlags = %+v", s)
	}
}

func TestSpecNetOptions(t *testing.T) {
	s := NewSpec("nginx", WithZeroCopy(), WithTxBatch(32), WithIRQCoalesce(4))
	if !s.ZeroCopy || s.TxKickBatch != 32 || s.RxIRQBatch != 4 {
		t.Errorf("net options not applied: %+v", s)
	}
	str := s.String()
	for _, want := range []string{"+zc", "kick=32", "irq=4"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
	rt := NewRuntime()
	tuning, err := rt.NetTuning(s)
	if err != nil {
		t.Fatal(err)
	}
	if tuning.TxKickBatch != 32 || tuning.RxIRQBatch != 4 {
		t.Errorf("NetTuning = %+v", tuning)
	}
	if _, err := rt.NetTuning(NewSpec("notepad")); err == nil {
		t.Error("NetTuning accepted an invalid spec")
	}
}

// TestSpecSnapshotBoot: the snapshot-fork options reach the Spec, its
// rendering, and the Runtime boot path — a second Boot of a
// SnapshotBoot spec forks the cached template instead of replaying the
// pipeline, and the clone is observationally a booted VM.
func TestSpecSnapshotBoot(t *testing.T) {
	s := NewSpec("nginx", WithVMM("firecracker"), WithSnapshotBoot(), WithInitStages())
	if !s.SnapshotBoot || !s.InitStages {
		t.Fatalf("options not applied: %+v", s)
	}
	for _, want := range []string{"+snap", "+stages"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() = %q, missing %q", s.String(), want)
		}
	}

	rt := NewRuntime()
	cold, err := rt.Boot(NewSpec("nginx", WithVMM("firecracker")))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	// First SnapshotBoot call pays the template boot; later ones fork.
	first, err := rt.Boot(s)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	forked, err := rt.Boot(s)
	if err != nil {
		t.Fatal(err)
	}
	defer forked.Close()
	if !forked.Forked || !first.Forked {
		t.Error("SnapshotBoot spec did not fork")
	}
	if 5*forked.Report.Total() > cold.Report.Total() {
		t.Errorf("fork %v not 5x below cold boot %v", forked.Report.Total(), cold.Report.Total())
	}
	cs, rs := forked.Heap.Stats(), cold.Heap.Stats()
	if cs.HeapBytes != rs.HeapBytes {
		t.Errorf("forked heap %d bytes vs booted %d", cs.HeapBytes, rs.HeapBytes)
	}
	if !reflect.DeepEqual(forked.InitLibs, cold.InitLibs) {
		t.Errorf("forked lib set %v vs booted %v", forked.InitLibs, cold.InitLibs)
	}

	// Close releases the cached template; the runtime stays usable and
	// re-captures on the next SnapshotBoot call.
	rt.Close()
	again, err := rt.Boot(s)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Forked {
		t.Error("post-Close SnapshotBoot did not fork")
	}

	// Specs differing below Spec.String()'s MiB rounding render the
	// same "mem=64MiB" but must not share a template: the cache keys on
	// exact memory/stack sizes.
	whole, err := rt.Boot(s.With(WithMemory(64 << 20)))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	half, err := rt.Boot(s.With(WithMemory(64<<20 + 512<<10)))
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if half.Config.MemBytes != 64<<20+512<<10 || half.Config.MemBytes == whole.Config.MemBytes {
		t.Errorf("sub-MiB spec forked from a colliding template: mem=%d vs %d",
			half.Config.MemBytes, whole.Config.MemBytes)
	}
}

// TestPoolSpecSnapshotBoot: a SnapshotBoot spec produces a pool whose
// fleet forks every instantiation from a pool-owned template.
func TestPoolSpecSnapshotBoot(t *testing.T) {
	rt := NewRuntime()
	serve := func(spec Spec) *ServeReport {
		pool, err := rt.NewPool(spec, WithPoolWarm(2), WithPoolMaxInstances(32), WithPoolColdBurst(2))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		rep, err := pool.Serve(BurstyWorkload(3, 10_000, 200_000, 50*time.Millisecond, 0.3, 20_000, 256))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := serve(NewSpec("nginx", WithVMM("firecracker")))
	snap := serve(NewSpec("nginx", WithVMM("firecracker"), WithSnapshotBoot()))
	if snap.ForkBoots == 0 || snap.ForkBoots != int(snap.Boot.Count) {
		t.Errorf("snapshot pool forked %d of %d boots", snap.ForkBoots, snap.Boot.Count)
	}
	if base.ForkBoots != 0 {
		t.Errorf("plain pool reports %d forks", base.ForkBoots)
	}
	if snap.ColdBoot.Count > 0 && base.ColdBoot.Count > 0 &&
		snap.ColdBoot.Quantile(0.99) >= base.ColdBoot.Quantile(0.99) {
		t.Errorf("fork cold p99 %v not below boot cold p99 %v",
			snap.ColdBoot.Quantile(0.99), base.ColdBoot.Quantile(0.99))
	}
}

// TestPoolSpecZeroCopy: a zero-copy, kick-batched spec must produce a
// pool whose requests finish faster than the copying default.
func TestPoolSpecZeroCopy(t *testing.T) {
	rt := NewRuntime()
	serve := func(spec Spec) *ServeReport {
		pool, err := rt.NewPool(spec, WithPoolWarm(2), DisablePoolAutoscale())
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		rep, err := pool.Serve(PoissonWorkload(1, 10_000, 2_000, 1024))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := serve(NewSpec("nginx", WithVMM("firecracker")))
	zc := serve(NewSpec("nginx", WithVMM("firecracker"), WithZeroCopy(), WithTxBatch(16)))
	if zc.Latency.Sum >= base.Latency.Sum {
		t.Errorf("zero-copy spec latency sum %v >= copying %v", zc.Latency.Sum, base.Latency.Sum)
	}
}

func TestSpecWithDoesNotMutate(t *testing.T) {
	base := NewSpec("nginx", WithExtraLibs("shfs"))
	derived := base.With(WithExtraLibs("uklock"), WithAllocator("buddy"))
	if len(base.ExtraLibs) != 1 || base.Allocator != "" {
		t.Errorf("With mutated the base spec: %+v", base)
	}
	if len(derived.ExtraLibs) != 2 || derived.Allocator != "buddy" {
		t.Errorf("derived spec wrong: %+v", derived)
	}
}

func TestValidateErrors(t *testing.T) {
	rt := NewRuntime()
	cases := []struct {
		spec Spec
		want string // substring of the error
	}{
		{NewSpec(""), "no app"},
		{NewSpec("notepad"), `unknown app "notepad"`},
		{NewSpec("nginx", WithVMM("vmware")), `unknown VMM "vmware"`},
		{NewSpec("nginx", WithPlatform("hyperv")), `unknown platform "hyperv"`},
		{NewSpec("nginx", WithPlatform("xen"), WithVMM("qemu")), `runs on platform "kvm", not "xen"`},
		{NewSpec("nginx", WithAllocator("jemalloc")), `unknown allocator "jemalloc"`},
		{NewSpec("nginx", WithMemory(-1)), "memory must not be negative"},
		{NewSpec("nginx", WithExtraLibs("shsf")), `unknown extra library "shsf"`},
		{NewSpec("nginx", WithTxBatch(-2)), "TX kick batch must not be negative"},
		{NewSpec("nginx", WithIRQCoalesce(-1)), "RX IRQ batch must not be negative"},
	}
	for _, c := range cases {
		err := rt.Validate(c.spec)
		if err == nil {
			t.Errorf("Validate(%v) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%v) = %q, want substring %q", c.spec, err, c.want)
		}
	}
	// A fully defaulted spec for every registered app validates.
	for _, app := range rt.Apps() {
		if err := rt.Validate(NewSpec(app)); err != nil {
			t.Errorf("Validate(%s) = %v", app, err)
		}
	}
	// Catalog libraries and bare boot-step names are both valid extras.
	if err := rt.Validate(NewSpec("nginx", WithExtraLibs("shfs", "pthreads"))); err != nil {
		t.Errorf("valid extra libs rejected: %v", err)
	}
}

func TestZeroValueDefaults(t *testing.T) {
	rt := NewRuntime()
	inst, err := rt.Run(NewSpec("helloworld"))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	vm := inst.VM
	if vm.Platform.Name != "kvm" || vm.Platform.VMM != "qemu" {
		t.Errorf("default platform = %s/%s, want kvm/qemu", vm.Platform.Name, vm.Platform.VMM)
	}
	if vm.Config.MemBytes != 64<<20 {
		t.Errorf("default memory = %d, want 64MiB", vm.Config.MemBytes)
	}
	// helloworld's profile allocator is ukallocbuddy -> buddy heap.
	if vm.Heap.Name() != "buddy" {
		t.Errorf("default heap = %s, want the profile's buddy", vm.Heap.Name())
	}
	if inst.Image.Platform != "kvm" {
		t.Errorf("image platform = %s", inst.Image.Platform)
	}
}

func TestAllocatorOverrideReachesImageAndHeap(t *testing.T) {
	rt := NewRuntime()
	inst, err := rt.Run(NewSpec("nginx", WithAllocator("mimalloc"), WithMemory(128<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.VM.Heap.Name() != "mimalloc" {
		t.Errorf("heap = %s, want mimalloc", inst.VM.Heap.Name())
	}
	found := false
	for _, lib := range inst.Image.Libs {
		if lib == "ukallocmim" {
			found = true
		}
	}
	if !found {
		t.Errorf("image libs %v missing ukallocmim provider", inst.Image.Libs)
	}
}

func TestSpecStackBytes(t *testing.T) {
	rt := NewRuntime()
	s := NewSpec("helloworld", WithStackBytes(128<<10))
	if s.StackBytes != 128<<10 {
		t.Fatalf("WithStackBytes not applied: %+v", s)
	}
	if got := s.String(); !strings.Contains(got, "stack=128KiB") {
		t.Errorf("String() = %q, want stack rendered", got)
	}
	if err := rt.Validate(NewSpec("helloworld", WithStackBytes(-1))); err == nil ||
		!strings.Contains(err.Error(), "stack size must not be negative") {
		t.Errorf("negative stack validation = %v", err)
	}
	inst, err := rt.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.VM.Config.StackBytes != 128<<10 {
		t.Errorf("stack did not reach boot config: %d", inst.VM.Config.StackBytes)
	}
}

// register tolerates "already registered" so tests stay idempotent
// under -count=N (the registry is process-global).
func register(t *testing.T, err error) {
	t.Helper()
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestRegisteredAppBuildsAndBoots(t *testing.T) {
	register(t, RegisterLibrary("app-apitest", LibraryConfig{
		UsedBytes: 24 << 10, UnusedBytes: 8 << 10, App: true,
		Needs: []string{"libc", "ukalloc"},
		Deps:  []string{"ukboot"},
	}))
	register(t, RegisterApp(AppProfile{Name: "apitest", Lib: "app-apitest"}))
	rt := NewRuntime()
	found := false
	for _, a := range rt.Apps() {
		if a == "apitest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered app missing from Apps(): %v", rt.Apps())
	}
	inst, err := rt.Run(NewSpec("apitest",
		WithDCE(), WithLTO(), WithMemory(8<<20), WithAllocator("tinyalloc")))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Image.PerLib["app-apitest"] != 24<<10 {
		t.Errorf("app library contributes %d bytes, want the 24KB used set", inst.Image.PerLib["app-apitest"])
	}
	full, err := rt.Build(NewSpec("apitest", WithAllocator("tinyalloc")))
	if err != nil {
		t.Fatal(err)
	}
	if full.Bytes <= inst.Image.Bytes {
		t.Errorf("default link %d bytes not larger than DCE+LTO %d (unused 8KB not stripped)",
			full.Bytes, inst.Image.Bytes)
	}
	if inst.VM.Heap.Name() != "tinyalloc" {
		t.Errorf("custom app heap = %s", inst.VM.Heap.Name())
	}
	if inst.VM.Report.Total() <= 0 {
		t.Error("no boot time recorded")
	}
}

func TestProfileBackendNameNormalized(t *testing.T) {
	// A profile may name its allocator by backend ("mimalloc") instead
	// of provider ("ukallocmim"); builds must normalize it so Validate
	// and Build agree.
	register(t, RegisterLibrary("app-backendname", LibraryConfig{
		UsedBytes: 4 << 10, App: true, Deps: []string{"ukboot"},
	}))
	register(t, RegisterApp(AppProfile{
		Name: "backendname", Lib: "app-backendname", Allocator: "mimalloc",
	}))
	rt := NewRuntime()
	if err := rt.Validate(NewSpec("backendname")); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	img, err := rt.Build(NewSpec("backendname"))
	if err != nil {
		t.Fatalf("Build after clean Validate: %v", err)
	}
	found := false
	for _, lib := range img.Libs {
		if lib == "ukallocmim" {
			found = true
		}
	}
	if !found {
		t.Errorf("image libs %v missing normalized ukallocmim provider", img.Libs)
	}
}

func TestAppsSortedAndStable(t *testing.T) {
	names := Apps()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Apps() not sorted: %v", names)
	}
	again := Apps()
	if strings.Join(names, ",") != strings.Join(again, ",") {
		t.Errorf("Apps() unstable: %v vs %v", names, again)
	}
	if allocs := Allocators(); !sort.StringsAreSorted(allocs) {
		t.Errorf("Allocators() not sorted: %v", allocs)
	}
}

func TestRuntimeExperiments(t *testing.T) {
	rt := NewRuntime()
	ids := rt.Experiments()
	if len(ids) == 0 || !sort.StringsAreSorted(ids) {
		t.Fatalf("Experiments() = %v", ids)
	}
	res, err := rt.RunExperiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig3" || len(res.Rows) == 0 {
		t.Errorf("fig3 result: %+v", res)
	}
	if _, err := rt.RunExperiment("fig99"); err == nil {
		t.Error("unknown experiment ran")
	}
}

func TestMinMemorySpec(t *testing.T) {
	rt := NewRuntime()
	min, err := rt.MinMemory(NewSpec("helloworld", WithAllocator("tlsf")))
	if err != nil {
		t.Fatal(err)
	}
	if min < 1<<20 || min > 8<<20 {
		t.Errorf("helloworld min memory = %dMB, want the paper's ~2MB regime", min>>20)
	}
	if _, err := rt.MinMemory(NewSpec("notepad")); err == nil {
		t.Error("MinMemory accepted unknown app")
	}
}
