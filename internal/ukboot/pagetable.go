package ukboot

import (
	"errors"
	"fmt"

	"unikraft/internal/ukalloc"
)

// This file implements a real x86-64 4-level page table builder. The
// paper's §6.1 compares three guest paging strategies: a page table
// pre-initialized at link time and simply activated at boot (static),
// dynamic population of the whole table at boot (needed when the app
// will mmap), and no paging at all (32-bit protected mode). Figure 21
// measures static-1GB boot at 29us and dynamic boot rising from 46us
// (32MB) to 114us (3GB); the per-table work done here, charged through
// the machine cost model, reproduces that series.

// Page table geometry (x86-64, 4KiB pages).
const (
	PageSize   = ukalloc.PageSize // the granularity heap arenas track writes at
	entryCount = 512

	pteP  = 1 << 0 // present
	pteRW = 1 << 1 // writable
	ptePS = 1 << 7 // huge page (unused: the guest maps 4KiB pages)
	// pteCOW is a software bit (x86-64 leaves 9-11 to the OS): the page
	// is shared with a snapshot template and must be copied on the first
	// write. Entries carrying it have pteRW cleared so real hardware
	// would fault exactly where WriteFault charges.
	pteCOW = 1 << 9
)

// ErrUnmapped is returned by Translate for addresses without a mapping.
var ErrUnmapped = errors.New("ukboot: address not mapped")

// table is one 512-entry page-table page.
type table struct {
	entries [entryCount]uint64
	// children mirrors entries for interior tables (index -> table).
	children [entryCount]*table
}

// PageTable is a 4-level x86-64 page table (PML4 -> PDPT -> PD -> PT).
type PageTable struct {
	root *table
	// Tables counts page-table pages allocated; boot charges per table.
	Tables int
	// Mapped counts 4KiB mappings installed.
	Mapped int

	// shared marks a header over a boot Context's tree, which every VM the
	// context booted reads: the first Map, Unmap or MarkCOW copies the
	// tree into this table (own) so a write never reaches another VM.
	shared bool

	// COW clone state (zero for ordinary tables). owned marks the table
	// pages this clone allocated privately; every other reachable table
	// still belongs to the snapshot template and must be copied before
	// any entry in it changes. privBase is the guest-physical base the
	// clone's private page copies are placed at (beyond the template's
	// identity-mapped memory, so a faulted page translates to a visibly
	// different frame than the shared original).
	owned    map[*table]bool
	privBase uint64
	// SharedTables counts template table pages this clone still
	// references; PrivateTables counts path copies made by write faults;
	// PrivatePages counts 4KiB data pages copied on first write.
	SharedTables  int
	PrivateTables int
	PrivatePages  int
}

// NewPageTable returns an empty 4-level table (one PML4 page).
func NewPageTable() *PageTable {
	return &PageTable{root: &table{}, Tables: 1}
}

// share returns a header over pt's tree for one booted VM: same Tables
// and Mapped, same translations, no table copied until it writes.
func (pt *PageTable) share() *PageTable {
	return &PageTable{root: pt.root, Tables: pt.Tables, Mapped: pt.Mapped, shared: true}
}

// own gives a shared header a private copy of the tree before its first
// write; on any other table it does nothing.
func (pt *PageTable) own() {
	if pt.shared {
		pt.root = copyTree(pt.root)
		pt.shared = false
	}
}

// copyTree deep-copies the table t and every table below it.
func copyTree(t *table) *table {
	cp := &table{entries: t.entries}
	for i, c := range t.children {
		if c != nil {
			cp.children[i] = copyTree(c)
		}
	}
	return cp
}

// indices splits a canonical virtual address into the four level indices.
func indices(virt uint64) (i4, i3, i2, i1 int) {
	i4 = int(virt >> 39 & 0x1ff)
	i3 = int(virt >> 30 & 0x1ff)
	i2 = int(virt >> 21 & 0x1ff)
	i1 = int(virt >> 12 & 0x1ff)
	return
}

// walk returns the PT-level table for virt, allocating interior tables
// as needed. On a COW clone, shared interior tables are privatized
// before being returned so no mutation can ever reach the template.
func (pt *PageTable) walk(virt uint64) *table {
	i4, i3, i2, _ := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		child := t.children[idx]
		switch {
		case child == nil:
			child = &table{}
			t.children[idx] = child
			t.entries[idx] = pteP | pteRW // interior entries: present+rw
			pt.Tables++
			if pt.owned != nil {
				pt.owned[child] = true
			}
		case pt.owned != nil && !pt.owned[child]:
			child = pt.privatize(t, idx, child)
		}
		t = child
	}
	return t
}

// privatize replaces the shared child table at parent.children[idx]
// with a private copy owned by this clone (entries and grandchildren
// pointers are copied shallowly — grandchildren stay shared until they
// are privatized in turn). Callers on the calibrated fault path charge
// cowTableCopyCycles per copy; the walk/Unmap safety paths privatize
// uncharged — they exist so stray mutations cannot reach the template,
// not as a modeled boot cost.
func (pt *PageTable) privatize(parent *table, idx int, shared *table) *table {
	cp := &table{entries: shared.entries, children: shared.children}
	parent.children[idx] = cp
	pt.owned[cp] = true
	pt.Tables++
	pt.PrivateTables++
	pt.SharedTables--
	return cp
}

// Map installs an identity-style mapping of length bytes from virt to
// phys (both must be page-aligned). Ranges sharing a leaf table are
// filled with one walk, so mapping large regions is O(tables) walks
// rather than O(pages).
func (pt *PageTable) Map(virt, phys uint64, bytes int) error {
	if virt%PageSize != 0 || phys%PageSize != 0 {
		return fmt.Errorf("ukboot: unaligned mapping %#x -> %#x", virt, phys)
	}
	pt.own()
	end := virt + uint64(bytes)
	for cur := virt; cur < end; {
		t := pt.walk(cur)
		_, _, _, i1 := indices(cur)
		for ; i1 < entryCount && cur < end; i1++ {
			t.entries[i1] = (phys + (cur - virt)) | pteP | pteRW
			pt.Mapped++
			cur += PageSize
		}
	}
	return nil
}

// Translate resolves a virtual address to the physical address.
func (pt *PageTable) Translate(virt uint64) (uint64, error) {
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

// Unmap removes the mapping for one page. On a COW clone the path is
// privatized first, so the unmap never reaches the template or sibling
// clones.
func (pt *PageTable) Unmap(virt uint64) error {
	pt.own()
	i4, i3, i2, i1 := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		child := t.children[idx]
		if child == nil {
			return ErrUnmapped
		}
		if pt.owned != nil && !pt.owned[child] {
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

// PTMode selects the guest paging strategy from §6.1.
type PTMode int

// Paging strategies.
const (
	// PTStatic: the image ships a pre-initialized page table; boot just
	// loads CR3 and enables paging (29us for 1GB, Fig 21).
	PTStatic PTMode = iota
	// PTDynamic: the entire table is populated at boot so the app can
	// later alter its address space (46-114us depending on memory).
	PTDynamic
	// PTNone: 32-bit protected mode, paging disabled entirely (§6.1:
	// "run in protected (32 bit) mode, disabling guest paging").
	PTNone
)

func (m PTMode) String() string {
	switch m {
	case PTStatic:
		return "static"
	case PTDynamic:
		return "dynamic"
	default:
		return "none"
	}
}

// Page-table boot cost calibration (Fig 21), in cycles at 3.6GHz.
const (
	// staticPTCycles: activate the pre-built table: 29us.
	staticPTCycles = 104_400
	// dynamicPTBaseCycles: fixed dynamic-path overhead (table walk setup,
	// CR3 load, TLB flush): ~44us — the 32MB point lands at 46us.
	dynamicPTBaseCycles = 160_000
	// dynamicPerTableCycles: cost to allocate+fill one 512-entry table
	// page: the 1GB..3GB slope is ~21.5us/GB = ~151 cycles per table.
	dynamicPerTableCycles = 151
	// noPTCycles: protected-mode setup without paging.
	noPTCycles = 18_000
)

// COW fork calibration, in cycles at 3.6GHz.
const (
	// cowFaultCycles is one copy-on-write fault: the write traps to the
	// hypervisor (VM-exit class, ~1.2us), the 4KiB page is copied
	// (~256 cycles at 16B/cycle) and the PTE is rewritten writable.
	cowFaultCycles = 4_700
	// cowTableCopyCycles copies one 512-entry page-table page while
	// privatizing the fault path (no exit: the table copy happens inside
	// the fault that is already being serviced).
	cowTableCopyCycles = 400
	// forkRootCycles sets up a clone's private PML4 and loads CR3.
	forkRootCycles = 2_000
)

// privatePhysBase is where a clone's private page copies are placed in
// guest-physical space: 1TiB, far beyond any guest memory this model
// boots, so a faulted page visibly translates to a different frame than
// the template's shared original.
const privatePhysBase = uint64(1) << 40

// MarkCOW freezes pt as an immutable snapshot template: every present
// leaf mapping loses its write bit and gains the software COW mark, so
// clones produced by Fork trap (WriteFault) on first write. Returns the
// number of pages marked. Marking is idempotent.
func (pt *PageTable) MarkCOW() int {
	pt.own()
	marked := 0
	var mark func(t *table, level int)
	mark = func(t *table, level int) {
		if t == nil {
			return
		}
		if level == 1 { // PT level: leaf entries
			for i, e := range t.entries {
				if e&pteP != 0 {
					t.entries[i] = e&^uint64(pteRW) | pteCOW
					marked++
				}
			}
			return
		}
		for _, c := range t.children {
			mark(c, level-1)
		}
	}
	mark(pt.root, 4)
	return marked
}

// Fork returns a copy-on-write clone of a MarkCOW'd template: the clone
// gets a private root (PML4) whose entries point at the template's
// shared lower-level tables; charge receives the root-copy cost. Every
// mapping is shared until the clone's first write to it — WriteFault
// privatizes the path (PDPT/PD/PT copies) and the data page. The
// template itself must never be written again; MarkCOW enforces that
// for real hardware and the clone's bookkeeping enforces it here.
func (pt *PageTable) Fork(charge func(uint64)) *PageTable {
	root := &table{entries: pt.root.entries, children: pt.root.children}
	clone := &PageTable{
		root:         root,
		Tables:       1,
		Mapped:       pt.Mapped,
		owned:        map[*table]bool{root: true},
		privBase:     privatePhysBase,
		SharedTables: pt.Tables - 1,
	}
	if charge != nil {
		charge(forkRootCycles)
	}
	return clone
}

// IsForked reports whether pt is a COW clone produced by Fork.
func (pt *PageTable) IsForked() bool { return pt.owned != nil }

// WriteFault services the clone's first write to the page containing
// virt: the path from the root to the leaf is privatized (shared
// PDPT/PD/PT pages copied), the data page is copied to a private frame
// and the PTE is rewritten writable. Costs are charged through charge
// (which may be nil). The second and later writes to the same page find
// a writable private mapping and return copied=false at no cost —
// exactly the fault-once semantics that make fork boots cheap.
func (pt *PageTable) WriteFault(charge func(uint64), virt uint64) (copied bool, err error) {
	if pt.owned == nil {
		return false, nil // not a clone: all mappings are already private
	}
	i4, i3, i2, i1 := indices(virt)
	t := pt.root
	for _, idx := range []int{i4, i3, i2} {
		child := t.children[idx]
		if child == nil {
			return false, ErrUnmapped
		}
		if !pt.owned[child] {
			child = pt.privatize(t, idx, child)
			if charge != nil {
				charge(cowTableCopyCycles)
			}
		}
		t = child
	}
	e := t.entries[i1]
	if e&pteP == 0 {
		return false, ErrUnmapped
	}
	if e&pteCOW == 0 {
		return false, nil // already private and writable
	}
	t.entries[i1] = pt.privBase + uint64(pt.PrivatePages)*PageSize | pteP | pteRW
	pt.PrivatePages++
	if charge != nil {
		charge(cowFaultCycles)
	}
	return true, nil
}

// BuildPageTable constructs (for PTDynamic) or activates (PTStatic) the
// guest page table for memBytes of RAM, charging the calibrated cost,
// and returns the table (nil for PTNone). NewContext calls it once per
// context; every boot's "pagetable" step charges what it charged and
// shares the table it built. Fig 21 calls it on a bare machine so that
// timing the step for a 3 GB guest does not make a 3 GB heap around it.
func BuildPageTable(charge func(uint64), mode PTMode, memBytes int) (*PageTable, error) {
	switch mode {
	case PTStatic:
		// Pre-initialized at link time: boot only enables paging. We
		// still materialize the table so Translate works afterwards,
		// but the boot-time charge is the fixed activation cost.
		pt := NewPageTable()
		if err := pt.Map(0, 0, memBytes); err != nil {
			return nil, err
		}
		charge(staticPTCycles)
		return pt, nil
	case PTDynamic:
		pt := NewPageTable()
		if err := pt.Map(0, 0, memBytes); err != nil {
			return nil, err
		}
		charge(dynamicPTBaseCycles + uint64(pt.Tables)*dynamicPerTableCycles)
		return pt, nil
	case PTNone:
		charge(noPTCycles)
		return nil, nil
	}
	return nil, fmt.Errorf("ukboot: unknown PT mode %d", mode)
}
