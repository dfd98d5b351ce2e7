package ukboot

import (
	"testing"
	"testing/quick"
	"time"

	_ "unikraft/internal/allocators/bootalloc"
	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tinyalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukplat"
)

func helloCfg(p ukplat.Platform) Config {
	return Config{
		Platform:   p,
		MemBytes:   8 << 20,
		ImageBytes: 256 << 10,
		PTMode:     PTStatic,
		Allocator:  "bootalloc",
	}
}

func TestBootHelloQEMU(t *testing.T) {
	m := sim.NewMachine()
	vm, err := Boot(m, helloCfg(ukplat.KVMQemu))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	r := vm.Report
	// Fig 10: QEMU total ~38.4ms dominated by the VMM; guest boot tens
	// of microseconds.
	if r.VMM < 30*time.Millisecond || r.VMM > 50*time.Millisecond {
		t.Errorf("VMM time = %v, want ~38ms", r.VMM)
	}
	if r.Guest < 20*time.Microsecond || r.Guest > 200*time.Microsecond {
		t.Errorf("guest time = %v, want tens of us", r.Guest)
	}
	if r.Total() != r.VMM+r.Guest {
		t.Errorf("Total mismatch")
	}
}

func TestBootVMMOrdering(t *testing.T) {
	// Fig 10's ordering: Solo5 ~ Firecracker < microVM < QEMU.
	total := func(p ukplat.Platform) time.Duration {
		m := sim.NewMachine()
		vm, err := Boot(m, helloCfg(p))
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		return vm.Report.Total()
	}
	qemu := total(ukplat.KVMQemu)
	micro := total(ukplat.KVMQemuMicroVM)
	fc := total(ukplat.KVMFirecracker)
	solo := total(ukplat.Solo5)
	if !(solo < micro && fc < micro && micro < qemu) {
		t.Errorf("ordering violated: qemu=%v micro=%v fc=%v solo5=%v", qemu, micro, fc, solo)
	}
	if fc > 4*time.Millisecond || solo > 4*time.Millisecond {
		t.Errorf("fc=%v solo=%v, want ~3.1ms", fc, solo)
	}
}

func TestBootNICAddsGuestTime(t *testing.T) {
	boot := func(nics int) Report {
		m := sim.NewMachine()
		cfg := helloCfg(ukplat.KVMQemu)
		cfg.NICs = nics
		vm, err := Boot(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		return vm.Report
	}
	without, with := boot(0), boot(1)
	if with.Guest <= without.Guest {
		t.Errorf("1 NIC guest %v <= 0 NIC guest %v", with.Guest, without.Guest)
	}
	// Fig 10: with one NIC the guest portion reaches hundreds of us.
	if with.Guest < 200*time.Microsecond || with.Guest > 900*time.Microsecond {
		t.Errorf("1 NIC guest = %v, want hundreds of us", with.Guest)
	}
	if with.VMM <= without.VMM {
		t.Errorf("NIC did not add VMM time")
	}
}

func TestMount9pfsBootCost(t *testing.T) {
	// §5.2: "Enabling the 9pfs device adds 0.3ms to the boot time of
	// Unikraft VMs on KVM, and 2.7ms on Xen."
	guest := func(p ukplat.Platform, mount bool) time.Duration {
		m := sim.NewMachine()
		cfg := helloCfg(p)
		cfg.Mount9pfs = mount
		vm, err := Boot(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		return vm.Report.Guest
	}
	kvmDelta := guest(ukplat.KVMQemu, true) - guest(ukplat.KVMQemu, false)
	xenDelta := guest(ukplat.Xen, true) - guest(ukplat.Xen, false)
	if kvmDelta < 250*time.Microsecond || kvmDelta > 450*time.Microsecond {
		t.Errorf("KVM 9pfs delta = %v, want ~0.3ms", kvmDelta)
	}
	if xenDelta < 2500*time.Microsecond || xenDelta > 3000*time.Microsecond {
		t.Errorf("Xen 9pfs delta = %v, want ~2.7ms", xenDelta)
	}
}

func TestAllocatorBootOrdering(t *testing.T) {
	// Fig 14: buddy slowest by far; bootalloc and tlsf fastest.
	guest := func(alloc string) time.Duration {
		m := sim.NewMachine()
		cfg := Config{
			Platform:   ukplat.KVMQemu,
			MemBytes:   1 << 30,
			ImageBytes: 1600 << 10,
			PTMode:     PTStatic,
			Allocator:  alloc,
			NICs:       1,
			Libs:       []string{"lwip", "vfscore", "ramfs", "pthreads"},
		}
		vm, err := Boot(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Close()
		return vm.Report.Guest
	}
	buddy := guest("buddy")
	boot := guest("bootalloc")
	tlsf := guest("tlsf")
	tiny := guest("tinyalloc")
	mi := guest("mimalloc")
	if !(boot < tiny && boot < mi && boot < buddy) {
		t.Errorf("bootalloc %v not fastest (tiny=%v mi=%v buddy=%v)", boot, tiny, mi, buddy)
	}
	if !(buddy > 2*tlsf) {
		t.Errorf("buddy %v not dominating tlsf %v", buddy, tlsf)
	}
	if buddy < 2*time.Millisecond || buddy > 5*time.Millisecond {
		t.Errorf("buddy nginx boot = %v, want ~3ms (Fig 14)", buddy)
	}
	if boot > time.Millisecond {
		t.Errorf("bootalloc nginx boot = %v, want ~0.5ms (Fig 14)", boot)
	}
}

func TestPageTableModes(t *testing.T) {
	// Fig 21 series: static 1GB ~29us; dynamic grows with memory and
	// exceeds static even at 32MB.
	ptCost := func(mode PTMode, mem int) time.Duration {
		m := sim.NewMachine()
		if _, err := BuildPageTable(m.Pay, mode, mem); err != nil {
			t.Fatal(err)
		}
		return m.CPU.Now()
	}
	static1G := ptCost(PTStatic, 1<<30)
	if static1G < 25*time.Microsecond || static1G > 35*time.Microsecond {
		t.Errorf("static 1GB = %v, want ~29us", static1G)
	}
	prev := time.Duration(0)
	for _, mem := range []int{32 << 20, 128 << 20, 512 << 20, 1 << 30, 2 << 30} {
		d := ptCost(PTDynamic, mem)
		if d <= prev {
			t.Errorf("dynamic %dMB = %v, not increasing (prev %v)", mem>>20, d, prev)
		}
		prev = d
	}
	dyn32 := ptCost(PTDynamic, 32<<20)
	if dyn32 <= static1G {
		t.Errorf("dynamic 32MB (%v) should exceed static 1GB (%v), Fig 21", dyn32, static1G)
	}
	dyn2G := ptCost(PTDynamic, 2<<30)
	if dyn2G < 80*time.Microsecond || dyn2G > 120*time.Microsecond {
		t.Errorf("dynamic 2GB = %v, want ~93us", dyn2G)
	}
	none := ptCost(PTNone, 1<<30)
	if none >= static1G {
		t.Errorf("PTNone (%v) should be cheapest (static %v)", none, static1G)
	}
	// The series above times the step on a bare machine; a booted guest's
	// "pagetable" step must be that same charge.
	cfg := helloCfg(ukplat.Solo5)
	cfg.PTMode = PTDynamic
	vm, err := Boot(sim.NewMachine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	var step time.Duration
	for _, s := range vm.Report.Steps {
		if s.Name == "pagetable" {
			step = s.Duration
		}
	}
	if want := ptCost(PTDynamic, cfg.MemBytes); step != want {
		t.Errorf("booted pagetable step = %v, BuildPageTable charges %v", step, want)
	}
}

func TestMinMemoryHello(t *testing.T) {
	cfg := helloCfg(ukplat.KVMQemu)
	cfg.MemBytes = 0
	min, err := MinMemory(cfg, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 11: Unikraft hello needs ~2MB.
	if min < 1<<20 || min > 3<<20 {
		t.Errorf("hello min memory = %dMB, want ~2MB", min>>20)
	}
}

func TestMinMemoryMonotoneInFloor(t *testing.T) {
	cfg := helloCfg(ukplat.KVMQemu)
	cfg.MemBytes = 0
	small, err := MinMemory(cfg, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MinMemory(cfg, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("min memory with 8MB floor (%d) <= with 128KB floor (%d)", big, small)
	}
}

// --- page table unit tests ---------------------------------------------

func TestPageTableMapTranslate(t *testing.T) {
	pt := newPageTable()
	if err := pt.mapRange(0, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	for _, virt := range []uint64{0, 4096, 123456, (4 << 20) - 1} {
		phys, err := pt.translate(virt)
		if err != nil {
			t.Fatalf("Translate(%#x): %v", virt, err)
		}
		if phys != virt {
			t.Fatalf("Translate(%#x) = %#x, want identity", virt, phys)
		}
	}
	if _, err := pt.translate(4 << 20); err != ErrUnmapped {
		t.Errorf("Translate beyond mapping = %v, want ErrUnmapped", err)
	}
}

func TestPageTableNonIdentity(t *testing.T) {
	pt := newPageTable()
	if err := pt.mapRange(0xffff_0000, 0x10_0000, 8192); err != nil {
		t.Fatal(err)
	}
	phys, err := pt.translate(0xffff_0000 + 4096 + 12)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x10_0000 + 4096 + 12); phys != want {
		t.Fatalf("phys = %#x, want %#x", phys, want)
	}
}

func TestPageTableUnmap(t *testing.T) {
	pt := newPageTable()
	if err := pt.mapRange(0, 0, 8192); err != nil {
		t.Fatal(err)
	}
	if err := pt.unmap(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.translate(4096); err != ErrUnmapped {
		t.Errorf("Translate after Unmap = %v, want ErrUnmapped", err)
	}
	if _, err := pt.translate(0); err != nil {
		t.Errorf("neighbour page lost: %v", err)
	}
	if err := pt.unmap(4096); err != ErrUnmapped {
		t.Errorf("double Unmap = %v, want ErrUnmapped", err)
	}
}

func TestPageTableUnaligned(t *testing.T) {
	pt := newPageTable()
	if err := pt.mapRange(123, 0, 4096); err == nil {
		t.Error("unaligned Map succeeded")
	}
}

// TestPageTableTableCount property: tables = 1 PML4 + ceil-divisions of
// each level for a [0, bytes) identity mapping.
func TestPageTableTableCount(t *testing.T) {
	f := func(mb uint8) bool {
		bytes := (int(mb)%512 + 1) << 20
		pt := newPageTable()
		if err := pt.mapRange(0, 0, bytes); err != nil {
			return false
		}
		pages := bytes / pageSize
		ceil := func(a, b int) int { return (a + b - 1) / b }
		ptTables := ceil(pages, 512)
		pdTables := ceil(ptTables, 512)
		pdptTables := ceil(pdTables, 512)
		want := 1 + pdptTables + pdTables + ptTables
		return pt.Tables == want && pt.Mapped == pages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// translate resolves a virtual address to the physical address.
func (pt *PageTable) translate(virt uint64) (uint64, error) {
	i4, i3, i2, i1 := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		if t.children[idx] == nil {
			return 0, ErrUnmapped
		}
		t = t.children[idx]
	}
	e := t.entries[i1]
	if e&pteP == 0 {
		return 0, ErrUnmapped
	}
	return e&^uint64(0xfff) | virt&0xfff, nil
}

// unmap removes the mapping for one page. On a COW clone the path is
// privatized first, so the unmap never reaches the template or sibling
// clones.
func (pt *PageTable) unmap(virt uint64) error {
	pt.own()
	i4, i3, i2, i1 := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		child := t.children[idx]
		if child == nil {
			return ErrUnmapped
		}
		if pt.clone && !pt.owned[child] {
			child = pt.privatize(t, idx, child)
		}
		t = child
	}
	if t.entries[i1]&pteP == 0 {
		return ErrUnmapped
	}
	t.entries[i1] = 0
	pt.Mapped--
	return nil
}
