package ukboot

import (
	"reflect"
	"slices"
	"testing"
	"time"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukplat"
)

// nginxCfg is the Fig 14-shaped nginx boot: firecracker, one NIC, the
// full profile lib set including a scheduler.
func nginxCfg() Config {
	return Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   64 << 20,
		ImageBytes: 1600 << 10,
		PTMode:     PTStatic,
		Allocator:  "tlsf",
		NICs:       1,
		Libs:       []string{"lwip", "vfscore", "ramfs", "uksched"},
	}
}

// TestForkBootEquivalence: a forked clone must be observationally
// identical to a freshly booted VM — same memory layout, same heap size
// and pristine allocator state, same initialized lib set — only cheaper
// to reach. A clone resumes the scheduler exactly when the boot
// initialized one.
func TestForkBootEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		nginxCfg(),
		{Platform: ukplat.KVMQemu, MemBytes: 8 << 20, ImageBytes: 256 << 10, Allocator: "bootalloc"},
		{Platform: ukplat.Solo5, MemBytes: 32 << 20, ImageBytes: 512 << 10, PTMode: PTDynamic, Allocator: "tlsf", Libs: []string{"vfscore"}},
		{Platform: ukplat.LinuxUserspace, MemBytes: 8 << 20, ImageBytes: 256 << 10, PTMode: PTNone, Allocator: "tlsf"},
	} {
		ctx, err := NewContext(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ctx.Boot(sim.NewMachine())
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		snap, err := ctx.Snapshot(sim.NewMachine())
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		clone, err := ctx.Fork(sim.NewMachine(), snap)
		if err != nil {
			t.Fatal(err)
		}
		defer clone.Close()

		if !clone.Forked {
			t.Error("clone not marked Forked")
		}
		if !reflect.DeepEqual(clone.Regions, ref.Regions) {
			t.Errorf("%s: regions differ: %+v vs %+v", cfg.Platform.VMM, clone.Regions, ref.Regions)
		}
		if !reflect.DeepEqual(clone.InitLibs, ref.InitLibs) {
			t.Errorf("%s: lib set differs: %v vs %v", cfg.Platform.VMM, clone.InitLibs, ref.InitLibs)
		}
		cs, rs := clone.Heap.Stats(), ref.Heap.Stats()
		if cs.HeapBytes != rs.HeapBytes || cs.FreeBytes != rs.FreeBytes || cs.Mallocs != 0 {
			t.Errorf("%s: heap state differs: clone %+v vs boot %+v", cfg.Platform.VMM, cs, rs)
		}
		if clone.Heap.Name() != ref.Heap.Name() {
			t.Errorf("%s: allocator %s vs %s", cfg.Platform.VMM, clone.Heap.Name(), ref.Heap.Name())
		}
		resumed := slices.ContainsFunc(clone.Report.Steps, func(s Step) bool { return s.Name == "sched-resume" })
		if booted := slices.Contains(ref.InitLibs, "uksched"); resumed != booted {
			t.Errorf("%s: clone sched-resume step %v, boot initialized uksched %v", cfg.Platform.VMM, resumed, booted)
		}
		if (clone.PageTable == nil) != (ref.PageTable == nil) {
			t.Errorf("%s: page table presence differs", cfg.Platform.VMM)
		}
		if clone.PageTable != nil {
			// An untouched mid-heap page still translates like the
			// template's identity map; the clone shares it. (The stack
			// and heap metadata pages were faulted private at fork.)
			probe := uint64(cfg.MemBytes) / 2
			phys, err := clone.PageTable.Translate(probe)
			if err != nil || phys != probe {
				t.Errorf("%s: clone Translate(%#x) = %#x, %v", cfg.Platform.VMM, probe, phys, err)
			}
		}
		// The clone serves allocations like a fresh boot.
		if _, err := clone.Heap.Malloc(64 << 10); err != nil {
			t.Errorf("%s: clone heap Malloc: %v", cfg.Platform.VMM, err)
		}
		// And recycles like one (the pool keeps VM.Reset for warm reuse).
		if err := clone.Reset(); err != nil {
			t.Errorf("%s: clone Reset: %v", cfg.Platform.VMM, err)
		}
	}
}

// TestForkSpeedup: the acceptance bar — fork-boot at least 5x faster
// than a cold boot for the nginx config, and well below a millisecond
// on firecracker.
func TestForkSpeedup(t *testing.T) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ctx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	fork, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()

	if 5*fork.Report.Total() > cold.Report.Total() {
		t.Errorf("fork %v not 5x below cold boot %v", fork.Report.Total(), cold.Report.Total())
	}
	if fork.Report.Total() > time.Millisecond {
		t.Errorf("fork total %v, want sub-millisecond on firecracker", fork.Report.Total())
	}
	if fork.Report.Guest <= 0 || fork.Report.VMM <= 0 {
		t.Errorf("fork charged nothing: %+v", fork.Report)
	}
}

// TestCOWInvariants: writes in one clone are never visible in the
// template or in sibling clones, faults charge once, and the faulted
// page visibly moves to a private frame.
func TestCOWInvariants(t *testing.T) {
	cfg := nginxCfg()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	mA, mB := sim.NewMachine(), sim.NewMachine()
	a, err := ctx.Fork(mA, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ctx.Fork(mB, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const virt = uint64(16 << 20) // an untouched page in the heap
	before := mA.CPU.Cycles()
	copied, err := a.PageTable.WriteFault(mA.Charge, virt)
	if err != nil || !copied {
		t.Fatalf("first write fault: copied=%v err=%v", copied, err)
	}
	if mA.CPU.Cycles() == before {
		t.Error("first fault charged nothing")
	}
	physA, err := a.PageTable.Translate(virt)
	if err != nil {
		t.Fatal(err)
	}
	if physA == virt {
		t.Errorf("faulted page still translates to the shared frame %#x", physA)
	}

	// Template and sibling still see the original shared frame.
	for name, pt := range map[string]*PageTable{"template": snap.Template().PageTable, "sibling": b.PageTable} {
		phys, err := pt.Translate(virt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if phys != virt {
			t.Errorf("%s sees clone A's write: %#x", name, phys)
		}
	}

	// Second write to the same page: already private, free of charge.
	before = mA.CPU.Cycles()
	copied, err = a.PageTable.WriteFault(mA.Charge, virt+8)
	if err != nil || copied {
		t.Fatalf("second fault: copied=%v err=%v", copied, err)
	}
	if mA.CPU.Cycles() != before {
		t.Error("second write to a private page charged")
	}

	// Unmap in a clone privatizes the path too: the template and the
	// sibling keep the mapping.
	if err := a.PageTable.Unmap(virt + PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PageTable.Translate(virt + PageSize); err != ErrUnmapped {
		t.Errorf("clone Translate after Unmap = %v, want ErrUnmapped", err)
	}
	for name, pt := range map[string]*PageTable{"template": snap.Template().PageTable, "sibling": b.PageTable} {
		if phys, err := pt.Translate(virt + PageSize); err != nil || phys != virt+PageSize {
			t.Errorf("%s lost its mapping to clone A's Unmap: %#x, %v", name, phys, err)
		}
	}

	// Clone heaps are disjoint memory: dirtying one arena leaves the
	// others (and the template's) untouched.
	aArena, bArena, tArena := a.Heap.Arena().Bytes(), b.Heap.Arena().Bytes(), snap.Template().Heap.Arena().Bytes()
	p, err := a.Heap.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	aArena[int(p)] = 0xAB
	if bArena[int(p)] == 0xAB || tArena[int(p)] == 0xAB {
		t.Error("clone A's heap write visible in sibling or template arena")
	}
	if a.PageTable.PrivatePages == 0 || a.PageTable.SharedTables == 0 {
		t.Errorf("clone accounting: private=%d shared=%d", a.PageTable.PrivatePages, a.PageTable.SharedTables)
	}
}

// TestForkDeterminism: forks of the same snapshot charge identical
// virtual time — the property pool fleets rely on.
func TestForkDeterminism(t *testing.T) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var first Report
	for i := 0; i < 3; i++ {
		vm, err := ctx.Fork(sim.NewMachine(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = vm.Report
		} else if !reflect.DeepEqual(vm.Report, first) {
			t.Errorf("fork %d report %+v differs from first %+v", i, vm.Report, first)
		}
		vm.Close()
	}
}

// TestInitStages: the staged init-table scheduler must honor the boot
// ordering invariants (allocator before everything, bus before virtio,
// NIC before lwip, vfscore before ramfs) while charging independent
// libs max instead of sum — so the staged guest boot is strictly
// faster, but never faster than its critical path.
func TestInitStages(t *testing.T) {
	cfg := nginxCfg()
	seqCtx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ParallelInit = true
	stagedCtx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stageOf := map[string]int{}
	for i, names := range stagedCtx.Stages() {
		for _, n := range names {
			stageOf[n] = i
		}
	}
	order := [][2]string{
		{"plat", "pagetable"},
		{"pagetable", "alloc:tlsf"},
		{"alloc:tlsf", "ukbus"},
		{"alloc:tlsf", "uksched"},
		{"ukbus", "virtio-net"},
		{"virtio-net", "lwip"},
		{"vfscore", "ramfs"},
		{"ramfs", "misc"},
	}
	for _, o := range order {
		a, aok := stageOf[o[0]]
		b, bok := stageOf[o[1]]
		if !aok || !bok {
			t.Fatalf("step %q or %q missing from stages %v", o[0], o[1], stagedCtx.Stages())
		}
		if a >= b {
			t.Errorf("ordering violated: %s (stage %d) not before %s (stage %d)", o[0], a, o[1], b)
		}
	}

	seq, err := seqCtx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	staged, err := stagedCtx.Boot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	defer staged.Close()
	if staged.Report.Guest >= seq.Report.Guest {
		t.Errorf("staged guest boot %v not below sequential %v", staged.Report.Guest, seq.Report.Guest)
	}
	// Critical path floor: lwip is the most expensive constructor and
	// must still be fully charged somewhere.
	lwip, _ := LibInitCost("lwip")
	if floor := sim.NewMachine().CPU.Duration(lwip); staged.Report.Guest < floor {
		t.Errorf("staged guest boot %v below the lwip critical path %v", staged.Report.Guest, floor)
	}
	if seq.Report.VMM != staged.Report.VMM {
		t.Errorf("staging changed VMM time: %v vs %v", staged.Report.VMM, seq.Report.VMM)
	}
}

// TestMinMemorySnapshotBoot: the probed minimum for a SnapshotBoot
// config reserves the clone's private page-table pages, so it can only
// be at or above the plain minimum — and strictly above once the app
// floor leaves less slack than the reserve.
func TestMinMemorySnapshotBoot(t *testing.T) {
	// A fine-grained monitor (4KiB granules, well below the page-table
	// reserve) makes the reserve visible: with any coarser granularity
	// the probe's slack can hide it, which is exactly how the original
	// bug survived.
	fine := ukplat.Platform{
		Name: "test", VMM: "test",
		VMMSetup:       time.Millisecond,
		MemGranularity: 4 << 10,
	}
	base := Config{
		Platform:   fine,
		ImageBytes: 256 << 10,
		PTMode:     PTStatic,
		Allocator:  "bootalloc",
	}
	forked := base
	forked.SnapshotBoot = true

	const floor = 2 << 20
	plain, err := MinMemory(base, floor)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := MinMemory(forked, floor)
	if err != nil {
		t.Fatal(err)
	}
	overhead := SnapshotPrivateBytes(Config{PTMode: PTStatic, MemBytes: plain})
	if overhead <= 0 {
		t.Fatal("no private-page overhead for a paged config")
	}
	if fork <= plain {
		t.Errorf("fork min %d not above plain min %d despite a %d-byte private reserve", fork, plain, overhead)
	}
	if fork < plain+overhead-2*fine.MemGranularity || fork > plain+overhead+2*fine.MemGranularity {
		t.Errorf("fork min %d not ~reserve above plain min %d (overhead %d)", fork, plain, overhead)
	}

	// PTNone clones share nothing table-shaped: no reserve.
	if got := SnapshotPrivateBytes(Config{PTMode: PTNone, MemBytes: 1 << 30}); got != 0 {
		t.Errorf("PTNone overhead = %d, want 0", got)
	}
}
