package ukboot

import (
	"fmt"
	"slices"

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

// Fork calibration, in cycles at 3.6 GHz.
const (
	// schedResumeCycles rebuilds the clone's run queue and re-arms the
	// idle thread from the template's captured scheduler state — far
	// below the full uksched constructor (libInitCycles["uksched"]).
	schedResumeCycles = 9_000
	// heapAttachCycles re-seats the allocator over the clone's COW heap
	// view: pointer fixup of the metadata the faults just privatized.
	heapAttachCycles = 3_000
	// snapMarkPerTableCycles is the per-page-table cost of the one-time
	// MarkCOW pass at capture time (clear RW, set the COW bit, flush).
	snapMarkPerTableCycles = 700
)

// Snapshot is the captured post-init state of a template VM: the
// COW-marked page table, the heap arena metadata footprint and the
// initialized lib set. It is immutable once captured — every clone
// shares its pages read-only and privatizes on write — and safe to
// fork from concurrently.
type Snapshot struct {
	ctx      *Context
	template *VM
	pt       *PageTable // template's table, COW-marked; nil for PTNone
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
// capture pass is part of template setup, never of a fork; MarkCOW
// copies the context's shared tree first, so VMs already booted keep
// writable entries) and the post-init heap footprint recorded. The
// returned snapshot owns the template; Close releases it.
func (c *Context) Snapshot(m *sim.Machine) (*Snapshot, error) {
	vm, err := c.Boot(m)
	if err != nil {
		return nil, fmt.Errorf("ukboot: snapshot template: %w", err)
	}
	snap := &Snapshot{ctx: c, template: vm}
	if vm.PageTable != nil {
		snap.markedPages = vm.PageTable.MarkCOW()
		snap.pt = vm.PageTable
		m.Charge(uint64(vm.PageTable.Tables) * snapMarkPerTableCycles)
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
	for off := 0; off < len(mem); off += PageSize {
		if !arena.Marked(off / PageSize) {
			continue
		}
		for _, b := range mem[off:min(off+PageSize, len(mem))] {
			if b != 0 {
				pages++
				break
			}
		}
	}
	return pages * PageSize
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
func (s *Snapshot) PrivateOverheadBytes() int { return SnapshotPrivateBytes(s.ctx.cfg) }

// Close releases the template VM's resources. Outstanding clones stay
// valid: they only share immutable page-table pages.
func (s *Snapshot) Close() {
	if s.template != nil {
		s.template.Close()
	}
}

// forkSink redirects allocator cost charges. During fork-time heap
// re-initialization it is detached (the metadata rebuild is hidden
// behind the COW faults already charged — the clone resumes with the
// template's ready-made heap, it does not re-run the constructor);
// attach() then wires subsequent allocator work to the clone's machine.
type forkSink struct{ m *sim.Machine }

func (s *forkSink) Charge(n uint64) {
	if s.m != nil {
		s.m.Charge(n)
	}
}

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
	}

	// --- VMM phase: restore from snapshot, not cold start --------------
	vmmStart := m.CPU.Cycles()
	m.ChargeDuration(c.cfg.Platform.ForkSetup)
	for i := 0; i < c.cfg.NICs; i++ {
		m.ChargeDuration(c.cfg.Platform.ForkNICSetup)
		// Multi-queue NICs remap one descriptor ring pair per clone per
		// queue; the template's tap/vhost plumbing is shared, so each
		// extra queue costs queue wiring, not NIC setup.
		for q := 1; q < c.cfg.NetQueues; q++ {
			m.ChargeDuration(c.cfg.Platform.NICQueueSetup)
		}
	}
	vm.Report.VMM = m.CPU.Duration(m.CPU.Cycles() - vmmStart)

	// --- Guest phase: private pages + dirty-state fixup -----------------
	guestStart := m.CPU.Cycles()
	step := func(name string, fn func() error) error {
		s := m.CPU.Cycles()
		if err := fn(); err != nil {
			return fmt.Errorf("ukboot: fork step %s: %w", name, err)
		}
		vm.Report.Steps = append(vm.Report.Steps, Step{
			Name:     name,
			Duration: m.CPU.Duration(m.CPU.Cycles() - s),
		})
		return nil
	}

	if err := step("cow-pagetable", func() error {
		if snap.pt != nil {
			vm.PageTable = snap.pt.Fork(m.Charge)
		} else {
			m.Charge(forkRootCycles) // PTNone: attach the flat address space
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := step("cow-faults", func() error {
		return c.faultDirtyPages(m, vm, snap)
	}); err != nil {
		return nil, err
	}

	if err := step("heap-attach", func() error {
		// The clone's heap view starts as the template's post-init
		// arena: rebuilding the same deterministic metadata over a
		// private arena models the COW copy without double-charging —
		// the sink is detached during init (the metadata pages were
		// faulted in above), then attached so later allocator work
		// charges the clone's machine.
		sink := &forkSink{}
		if err := c.attachHeap(vm, sink); err != nil {
			return err
		}
		sink.m = m
		m.Charge(heapAttachCycles)
		return nil
	}); err != nil {
		return nil, err
	}

	if slices.Contains(c.cfg.Libs, "uksched") {
		if err := step("sched-resume", func() error {
			m.Charge(schedResumeCycles)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if c.cfg.RootFS != RootNone {
		// The clone's filesystem view: COW over the template's ramfs
		// tree (reads share the template bytes, writes privatize), a
		// read-only View of the sealed SHFS volume, or a fresh 9p mount
		// over the shared host export — see forkRootFS.
		if err := step("rootfs-cow", func() error {
			return c.forkRootFS(vm, m, snap.template)
		}); err != nil {
			vm.Close()
			return nil, err
		}
	}

	vm.Report.Guest = m.CPU.Duration(m.CPU.Cycles() - guestStart)
	return vm, nil
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
			pages := (bytes + PageSize - 1) / PageSize
			m.Charge(uint64(pages) * cowFaultCycles)
			return nil
		}
		end := base + uint64(bytes)
		for virt := base &^ uint64(PageSize-1); virt < end; virt += PageSize {
			if _, err := vm.PageTable.WriteFault(m.Charge, virt); err != nil {
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
