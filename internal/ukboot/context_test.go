package ukboot

import (
	"reflect"
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/ukplat"
)

// TestContextBootMatchesBoot: a reusable Context must charge exactly
// the virtual time a one-off Boot does, step for step, across repeated
// boots — that equivalence is what lets the pool layer boot fleets
// through one Context without skewing the paper's boot numbers.
func TestContextBootMatchesBoot(t *testing.T) {
	cfgs := []Config{
		{Platform: ukplat.KVMQemu, MemBytes: 64 << 20, ImageBytes: 1 << 20, NICs: 1,
			Libs: []string{"lwip", "vfscore", "ramfs"}},
		{Platform: ukplat.KVMFirecracker, MemBytes: 8 << 20, ImageBytes: 512 << 10,
			Allocator: "buddy", Mount9pfs: true},
		{Platform: ukplat.Xen, MemBytes: 32 << 20, ImageBytes: 256 << 10,
			PTMode: PTDynamic, Libs: []string{"vfscore"}},
	}
	for _, cfg := range cfgs {
		ref, err := Boot(sim.NewMachine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		ctx, err := NewContext(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			vm, err := ctx.Boot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			defer vm.Close()
			if vm.Report.VMM != ref.Report.VMM || vm.Report.Guest != ref.Report.Guest {
				t.Errorf("%s round %d: context boot %v+%v, one-off %v+%v",
					cfg.Platform.Name, round, vm.Report.VMM, vm.Report.Guest,
					ref.Report.VMM, ref.Report.Guest)
			}
			if len(vm.Report.Steps) != len(ref.Report.Steps) {
				t.Fatalf("%s: %d steps vs %d", cfg.Platform.Name,
					len(vm.Report.Steps), len(ref.Report.Steps))
			}
			for i, s := range vm.Report.Steps {
				if s != ref.Report.Steps[i] {
					t.Errorf("%s step %d: %+v vs %+v", cfg.Platform.Name, i, s, ref.Report.Steps[i])
				}
			}
		}
	}
}

// leafEntry returns the PT-level entry for virt, 0 when no leaf table
// covers it.
func leafEntry(pt *PageTable, virt uint64) uint64 {
	i4, i3, i2, i1 := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		if t = t.children[idx]; t == nil {
			return 0
		}
	}
	return t.entries[i1]
}

// TestBootSharesPageTable: the VMs one Context boots share its page
// table, yet each behaves as if it had built its own — same report,
// same table, and a write to one reaches neither the others nor a
// later boot nor, through a Snapshot's MarkCOW, any VM already booted.
func TestBootSharesPageTable(t *testing.T) {
	for _, mode := range []PTMode{PTStatic, PTDynamic, PTNone} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := recycleCfg("tlsf")
			cfg.PTMode = mode
			mem := uint64(cfg.MemBytes)
			ctx, err := NewContext(cfg)
			if err != nil {
				t.Fatal(err)
			}
			boot := func() *VM {
				vm, err := ctx.Boot(sim.NewMachine())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(vm.Close)
				return vm
			}
			vms := make([]*VM, 3)
			for i := range vms {
				vms[i] = boot()
				fresh, err := Boot(sim.NewMachine(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Close()
				if !reflect.DeepEqual(vms[i].Report, fresh.Report) {
					t.Errorf("boot %d: report %+v, a fresh context's %+v", i, vms[i].Report, fresh.Report)
				}
			}
			ref, err := BuildPageTable(func(sim.CostID, uint64) {}, mode, cfg.MemBytes)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				for i, vm := range vms {
					if vm.PageTable != nil {
						t.Errorf("boot %d has a page table with paging off", i)
					}
				}
				return
			}
			for i, vm := range vms {
				pt := vm.PageTable
				if pt.Tables != ref.Tables || pt.Mapped != ref.Mapped {
					t.Errorf("boot %d: %d tables, %d mapped; BuildPageTable %d, %d", i, pt.Tables, pt.Mapped, ref.Tables, ref.Mapped)
				}
				for virt := uint64(0); virt < mem+2*pageSize; virt += pageSize {
					got, gerr := pt.translate(virt + 123)
					want, werr := ref.translate(virt + 123)
					if got != want || gerr != werr {
						t.Fatalf("boot %d: Translate(%#x) = %#x, %v; BuildPageTable's %#x, %v", i, virt+123, got, gerr, want, werr)
					}
				}
			}

			const gone = uint64(4 << 20)
			if err := vms[0].PageTable.unmap(gone); err != nil {
				t.Fatal(err)
			}
			if _, err := vms[0].PageTable.translate(gone); err != ErrUnmapped {
				t.Errorf("Translate after Unmap = %v, want ErrUnmapped", err)
			}
			others := append(vms[1:], boot())
			for i, vm := range others {
				if phys, err := vm.PageTable.translate(gone); err != nil || phys != gone || vm.PageTable.Mapped != ref.Mapped {
					t.Errorf("VM %d after another's Unmap: Translate = %#x, %v; %d mapped", i+1, phys, err, vm.PageTable.Mapped)
				}
			}

			snap, err := ctx.Snapshot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if snap.MarkedPages() != ref.Mapped {
				t.Errorf("snapshot marked %d pages, want %d", snap.MarkedPages(), ref.Mapped)
			}
			if e := leafEntry(snap.Template().PageTable, 0); e&pteCOW == 0 || e&pteRW != 0 {
				t.Errorf("template leaf entry %#x is not COW-marked", e)
			}
			for i, vm := range append([]*VM{vms[0]}, others...) {
				for virt := uint64(0); virt < mem; virt += pageSize {
					if i == 0 && virt == gone {
						continue
					}
					if e := leafEntry(vm.PageTable, virt); e&pteRW == 0 || e&pteCOW != 0 {
						t.Fatalf("VM %d after a snapshot: entry for %#x is %#x, want writable and unmarked", i, virt, e)
					}
				}
			}
		})
	}
}

// TestVMReset: recycling must leave a usable pristine heap and cost far
// less than a boot.
func TestVMReset(t *testing.T) {
	m := sim.NewMachine()
	vm, err := Boot(m, Config{Platform: ukplat.KVMFirecracker, MemBytes: 8 << 20, ImageBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	bootCycles := m.CPU.Cycles()

	// Dirty the heap, then lose the pointers (a tenant's garbage).
	for i := 0; i < 100; i++ {
		if _, err := vm.Heap.Malloc(4 << 10); err != nil {
			t.Fatal(err)
		}
	}
	used := vm.Heap.Stats().HeapBytes - vm.Heap.Stats().FreeBytes

	heap := vm.Heap
	start := m.CPU.Cycles()
	if err := vm.Reset(); err != nil {
		t.Fatal(err)
	}
	resetCycles := m.CPU.Cycles() - start
	if resetCycles == 0 {
		t.Error("reset charged nothing; heap re-init has a real cost")
	}
	if resetCycles*10 > bootCycles {
		t.Errorf("reset cost %d cycles, want <10%% of the %d-cycle boot", resetCycles, bootCycles)
	}
	if vm.Heap.Stats().Mallocs != 0 {
		t.Error("reset heap still carries old counters")
	}
	fresh := vm.Heap.Stats().HeapBytes - vm.Heap.Stats().FreeBytes
	if fresh >= used {
		t.Errorf("reset did not reclaim the heap: %d used before, %d after", used, fresh)
	}
	if _, err := vm.Heap.Malloc(1 << 10); err != nil {
		t.Errorf("allocation on reset heap failed: %v", err)
	}
	if vm.Heap != heap {
		t.Error("reset made a new allocator; it re-Inits the VM's own in place")
	}
}
