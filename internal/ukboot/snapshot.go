package ukboot

import (
	"fmt"

	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukplat"
)

// This file implements snapshot-fork instantiation: boot one template
// VM per config, capture its post-init state as an immutable Snapshot,
// then stamp out clones copy-on-write. A fork charges only the VMM's
// snapshot-restore cost (ukplat.Platform.ForkSetup/ForkNICSetup), the
// clone's private-page faults (boot stack + heap allocator metadata)
// and a scheduler resume — not the full per-lib constructor chain — so
// cold instantiation drops from Fig 10's milliseconds to the
// sub-millisecond regime the paper's §6.1 argues specialized init makes
// possible.

// Snapshot is the captured post-init state of a template VM: the
// COW-marked page table, the heap arena metadata footprint and the
// initialized lib set. It is immutable once captured — every clone
// shares its pages read-only and privatizes on write — and safe to
// fork from concurrently.
type Snapshot struct {
	ctx      *Context
	template *VM
	// pt is a header of its own over the template's COW-marked tree (nil
	// for PTNone): the template's header goes back to the context when
	// the template closes.
	pt *PageTable
	// heapMetaBytes is the allocator's boot-time write-set: the pages
	// of the template arena that hold non-zero bytes right after init
	// (free-list heads, pool headers, boundary tags) — the only heap
	// pages a clone must fault in before serving. Measured by scanning
	// the real arena, not estimated: Stats' free-byte accounting counts
	// fragmentation holes the allocator never wrote, which would make
	// buddy-style backends look orders of magnitude dirtier than their
	// init path really is.
	heapMetaBytes int
	markedPages   int
}

// Snapshot boots a template instance on m through the full pipeline,
// then freezes it: the page table is COW-marked (charged to m — the
// capture pass is part of template setup, never of a fork; markCOW
// copies the context's shared tree first, so VMs already booted keep
// writable entries) and the post-init heap footprint recorded. The
// returned snapshot owns the template; Close releases it.
func (c *Context) Snapshot(m *sim.Machine) (*Snapshot, error) {
	vm, err := c.Boot(m)
	if err != nil {
		return nil, fmt.Errorf("ukboot: snapshot template: %w", err)
	}
	snap := &Snapshot{ctx: c, template: vm}
	if pt := vm.PageTable; pt != nil {
		snap.markedPages = pt.markCOW()
		snap.pt = &PageTable{root: pt.root, Tables: pt.Tables, Mapped: pt.Mapped}
		m.Pay(sim.CostSnapMarkTable, uint64(pt.Tables))
	}
	if vm.Heap != nil {
		snap.heapMetaBytes = dirtyBytes(vm.Heap.Arena())
	}
	return snap, nil
}

// dirtyBytes counts the written (non-zero) pages of an arena, in bytes.
// Only pages in the arena's dirty set can be non-zero, so only those are
// read.
func dirtyBytes(arena *ukalloc.Arena) int {
	mem := arena.Bytes()
	pages := 0
	for off := 0; off < len(mem); off += pageSize {
		if !arena.Marked(off / pageSize) {
			continue
		}
		for _, b := range mem[off:min(off+pageSize, len(mem))] {
			if b != 0 {
				pages++
				break
			}
		}
	}
	return pages * pageSize
}

// Template returns the frozen template VM (read-only: its boot report
// and configuration identify what clones inherit).
func (s *Snapshot) Template() *VM { return s.template }

// MarkedPages reports how many 4KiB pages the capture marked COW.
func (s *Snapshot) MarkedPages() int { return s.markedPages }

// HeapMetaBytes reports the allocator metadata footprint clones fault
// in at fork time.
func (s *Snapshot) HeapMetaBytes() int { return s.heapMetaBytes }

// PrivateOverheadBytes is the clone-side guest memory reserve forks
// need beyond a plain boot (see SnapshotPrivateBytes).
func (s *Snapshot) PrivateOverheadBytes() int { return snapshotPrivateBytes(s.ctx.cfg) }

// Close releases the template VM's resources. Outstanding clones stay
// valid: they only share immutable page-table pages.
func (s *Snapshot) Close() {
	if s.template != nil {
		s.template.Close()
	}
}

// The steps of a fork, in order; NewContext lists the ones a config
// runs in Context.forkNames.
const (
	forkStepPT     = "cow-pagetable"
	forkStepFaults = "cow-faults"
	forkStepHeap   = "heap-attach"
	forkStepSched  = "sched-resume"
	forkStepRootFS = "rootfs-cow"
)

// Fork instantiates a clone of snap on machine m, copy-on-write. The
// clone charges the monitor's snapshot-restore cost, a private root
// table, write faults for the pages every boot dirties (the stack and
// the heap allocator metadata) and a scheduler resume — then it is
// observationally identical to a freshly booted VM: same regions, same
// heap size and allocator state, same initialized lib set.
func (c *Context) Fork(m *sim.Machine, snap *Snapshot) (*VM, error) {
	if snap == nil || snap.ctx != c {
		return nil, fmt.Errorf("ukboot: Fork needs a snapshot captured from this context")
	}
	vm := &VM{
		Machine:  m,
		Platform: c.cfg.Platform,
		Config:   c.cfg,
		Regions:  c.regions,
		InitLibs: c.initLibs,
		Forked:   true,
		ctx:      c,
		parts:    c.takeParts(),
	}

	// --- VMM phase: restore from snapshot, not cold start --------------
	vmmStart := m.CPU.Cycles()
	m.Spend(sim.LayerPlatform, m.CPU.ToCycles(c.cfg.Platform.ForkSetup))
	for i := 0; i < c.cfg.NICs; i++ {
		m.Spend(sim.LayerPlatform, m.CPU.ToCycles(c.cfg.Platform.ForkNICSetup))
		// Multi-queue NICs remap one descriptor ring pair per clone per
		// queue; the template's tap/vhost plumbing is shared, so each
		// extra queue costs queue wiring, not NIC setup.
		for q := 1; q < c.cfg.NetQueues; q++ {
			m.Spend(sim.LayerPlatform, m.CPU.ToCycles(c.cfg.Platform.NICQueueSetup))
		}
	}
	vm.Report.VMM = m.CPU.Duration(m.CPU.Cycles() - vmmStart)

	// --- Guest phase: private pages + dirty-state fixup -----------------
	guestStart := m.CPU.Cycles()
	var buf [8]uint64
	cycles := buf[:0]
	for _, name := range c.forkNames {
		s := m.CPU.Cycles()
		if err := c.forkStep(name, vm, m, snap); err != nil {
			vm.Close()
			return nil, fmt.Errorf("ukboot: fork step %s: %w", name, err)
		}
		cycles = append(cycles, m.CPU.Cycles()-s)
	}
	vm.Report.Steps = c.forkSteps.steps(m.CPU, c.forkNames, cycles)
	vm.Report.Guest = m.CPU.Duration(m.CPU.Cycles() - guestStart)
	return vm, nil
}

// forkStep runs the fork step name for the clone vm on m.
func (c *Context) forkStep(name string, vm *VM, m *sim.Machine, snap *Snapshot) error {
	switch name {
	case forkStepPT:
		if snap.pt == nil {
			m.Pay(sim.CostForkRoot, 1) // PTNone: attach the flat address space
			return nil
		}
		vm.parts.pt.fork(snap.pt, m.Pay)
		vm.PageTable = &vm.parts.pt
	case forkStepFaults:
		return c.faultDirtyPages(m, vm, snap)
	case forkStepHeap:
		// The clone's heap view starts as the template's post-init
		// arena: rebuilding the same deterministic metadata over a
		// private arena models the COW copy without double-charging —
		// the sink is detached during init (the metadata pages were
		// faulted in above), then attached so later allocator work
		// charges the clone's machine.
		vm.parts.sink.m = nil
		if err := c.attachHeap(vm); err != nil {
			return err
		}
		vm.parts.sink.m = m
		m.Pay(sim.CostHeapAttach, 1)
	case forkStepSched:
		m.Pay(sim.CostSchedResume, 1)
	case forkStepRootFS:
		// The clone's filesystem view: COW over the template's ramfs
		// tree (reads share the template bytes, writes privatize), a
		// read-only View of the sealed SHFS volume, or a fresh 9p mount
		// over the shared host export — see forkRootFS.
		return c.forkRootFS(vm, m, snap.template)
	}
	return nil
}

// faultDirtyPages charges the clone's unavoidable first writes: every
// page of the boot stack (the fork resumes mid-call-chain) and the heap
// allocator's metadata pages. With a real page table each fault goes
// through WriteFault (privatizing the table path as it goes); under
// PTNone the same per-page copy cost is charged directly.
func (c *Context) faultDirtyPages(m *sim.Machine, vm *VM, snap *Snapshot) error {
	fault := func(base uint64, bytes int) error {
		if bytes <= 0 {
			return nil
		}
		if vm.PageTable == nil {
			pages := (bytes + pageSize - 1) / pageSize
			m.Pay(sim.CostCOWFault, uint64(pages))
			return nil
		}
		end := base + uint64(bytes)
		for virt := base &^ uint64(pageSize-1); virt < end; virt += pageSize {
			if _, err := vm.PageTable.writeFault(m.Pay, virt); err != nil {
				return fmt.Errorf("fault %#x: %w", virt, err)
			}
		}
		return nil
	}
	for _, r := range c.regions {
		switch r.Kind {
		case ukplat.RegionStack:
			if err := fault(r.Base, r.Bytes); err != nil {
				return err
			}
		case ukplat.RegionHeap:
			meta := snap.heapMetaBytes
			if meta > r.Bytes {
				meta = r.Bytes
			}
			if err := fault(r.Base, meta); err != nil {
				return err
			}
		}
	}
	return nil
}
