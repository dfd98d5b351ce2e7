package ukboot

import (
	"errors"
	"fmt"

	"unikraft/internal/sim"
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
	pageSize   = ukalloc.PageSize // the granularity heap arenas track writes at
	entryCount = 512

	pteP  = 1 << 0 // present
	pteRW = 1 << 1 // writable
	ptePS = 1 << 7 // huge page (unused: the guest maps 4KiB pages)
	// pteCOW is a software bit (x86-64 leaves 9-11 to the OS): the page
	// is shared with a snapshot template and must be copied on the first
	// write. Entries carrying it have pteRW cleared so real hardware
	// would fault exactly where writeFault charges.
	pteCOW = 1 << 9
)

// ErrUnmapped is returned for an address without a mapping.
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
	// context booted reads: the first mapRange or markCOW copies the tree
	// into this table (own) so a write never reaches another VM.
	shared bool

	// COW clone state (zero for ordinary tables but owned and spare).
	// clone marks a header fork made; owned holds the table pages it
	// allocated privately, and every other reachable table still
	// belongs to the snapshot template and must be copied before any
	// entry in it changes. privBase is the guest-physical base the
	// clone's private page copies are placed at (beyond the template's
	// identity-mapped memory, so a faulted page translates to a visibly
	// different frame than the shared original).
	clone    bool
	owned    map[*table]bool
	privBase uint64
	// spare holds the private table pages of this header's earlier
	// clone lives, which its later clones take before they allocate;
	// owned (emptied) is kept for them too.
	spare []*table
	// SharedTables counts template table pages this clone still
	// references; PrivateTables counts path copies made by write faults;
	// PrivatePages counts 4KiB data pages copied on first write.
	SharedTables  int
	PrivateTables int
	PrivatePages  int
}

// newPageTable returns an empty 4-level table (one PML4 page).
func newPageTable() *PageTable {
	return &PageTable{root: &table{}, Tables: 1}
}

// share makes pt a header over src's tree for one booted VM: same
// Tables and Mapped, same translations, no table copied until it
// writes. The table pages a closed clone left in pt stay for its next
// fork.
func (pt *PageTable) share(src *PageTable) {
	*pt = PageTable{root: src.root, Tables: src.Tables, Mapped: src.Mapped, shared: true,
		owned: pt.owned, spare: pt.spare}
}

// recycle readies the header of a closed VM for its context's next boot
// or fork: the clone's private table pages go to spare, nothing else
// reachable from the header survives.
func (pt *PageTable) recycle() {
	for t := range pt.owned {
		pt.spare = append(pt.spare, t)
	}
	clear(pt.owned)
	*pt = PageTable{owned: pt.owned, spare: pt.spare}
}

// newTable returns a table page for this clone to own, a spare one when
// an earlier clone left it; its contents are the caller's to set, all
// of them.
func (pt *PageTable) newTable() *table {
	var t *table
	if n := len(pt.spare); n > 0 {
		t = pt.spare[n-1]
		pt.spare[n-1] = nil
		pt.spare = pt.spare[:n-1]
	} else {
		t = &table{}
	}
	pt.owned[t] = true
	return t
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
			if pt.clone {
				child = pt.newTable()
				*child = table{}
			} else {
				child = &table{}
			}
			t.children[idx] = child
			t.entries[idx] = pteP | pteRW // interior entries: present+rw
			pt.Tables++
		case pt.clone && !pt.owned[child]:
			child = pt.privatize(t, idx, child)
		}
		t = child
	}
	return t
}

// privatize replaces the shared child table at parent.children[idx]
// with a private copy owned by this clone (entries and grandchildren
// pointers are copied shallowly — grandchildren stay shared until they
// are privatized in turn). Callers on the calibrated fault path pay
// sim.CostCOWTableCopy per copy; the walk safety path privatizes
// uncharged — it exists so stray mutations cannot reach the template,
// not as a modeled boot cost.
func (pt *PageTable) privatize(parent *table, idx int, shared *table) *table {
	cp := pt.newTable()
	cp.entries, cp.children = shared.entries, shared.children
	parent.children[idx] = cp
	pt.Tables++
	pt.PrivateTables++
	pt.SharedTables--
	return cp
}

// mapRange installs an identity-style mapping of length bytes from virt to
// phys (both must be page-aligned). Ranges sharing a leaf table are
// filled with one walk, so mapping large regions is O(tables) walks
// rather than O(pages).
func (pt *PageTable) mapRange(virt, phys uint64, bytes int) error {
	if virt%pageSize != 0 || phys%pageSize != 0 {
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
			cur += pageSize
		}
	}
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

// privatePhysBase is where a clone's private page copies are placed in
// guest-physical space: 1TiB, far beyond any guest memory this model
// boots, so a faulted page visibly translates to a different frame than
// the template's shared original.
const privatePhysBase = uint64(1) << 40

// markCOW freezes pt as an immutable snapshot template: every present
// leaf mapping loses its write bit and gains the software COW mark, so
// clones produced by fork trap (writeFault) on first write. Returns the
// number of pages marked. Marking is idempotent.
func (pt *PageTable) markCOW() int {
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

// fork makes pt a copy-on-write clone of the markCOW'd template tmpl:
// the clone gets a private root (PML4) whose entries point at the
// template's shared lower-level tables; pay receives the root-copy
// cost. Every mapping is shared until the clone's first write to it —
// WriteFault privatizes the path (PDPT/PD/PT copies) and the data page.
// The template itself must never be written again; markCOW enforces
// that for real hardware and the clone's bookkeeping enforces it here.
// pt must be empty (recycled); the table pages it kept are reused.
func (pt *PageTable) fork(tmpl *PageTable, pay func(sim.CostID, uint64)) {
	if pt.owned == nil {
		pt.owned = map[*table]bool{}
	}
	pt.clone = true
	pt.root = pt.newTable()
	pt.root.entries, pt.root.children = tmpl.root.entries, tmpl.root.children
	pt.Tables, pt.Mapped = 1, tmpl.Mapped
	pt.privBase = privatePhysBase
	pt.SharedTables = tmpl.Tables - 1
	if pay != nil {
		pay(sim.CostForkRoot, 1)
	}
}

// writeFault services the clone's first write to the page containing
// virt: the path from the root to the leaf is privatized (shared
// PDPT/PD/PT pages copied), the data page is copied to a private frame
// and the PTE is rewritten writable. Costs are paid through pay (which
// may be nil). The second and later writes to the same page find
// a writable private mapping and return copied=false at no cost —
// exactly the fault-once semantics that make fork boots cheap.
func (pt *PageTable) writeFault(pay func(sim.CostID, uint64), virt uint64) (copied bool, err error) {
	if !pt.clone {
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
			if pay != nil {
				pay(sim.CostCOWTableCopy, 1)
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
	t.entries[i1] = pt.privBase + uint64(pt.PrivatePages)*pageSize | pteP | pteRW
	pt.PrivatePages++
	if pay != nil {
		pay(sim.CostCOWFault, 1)
	}
	return true, nil
}

// BuildPageTable constructs (for PTDynamic) or activates (PTStatic) the
// guest page table for memBytes of RAM, paying the calibrated cost,
// and returns the table (nil for PTNone). NewContext calls it once per
// context; every boot's "pagetable" step charges what it charged and
// shares the table it built. Fig 21 calls it on a bare machine so that
// timing the step for a 3 GB guest does not make a 3 GB heap around it.
func BuildPageTable(pay func(sim.CostID, uint64), mode PTMode, memBytes int) (*PageTable, error) {
	switch mode {
	case PTStatic:
		// Pre-initialized at link time: boot only enables paging. We
		// still materialize the table so Translate works afterwards,
		// but the boot-time charge is the fixed activation cost.
		pt := newPageTable()
		if err := pt.mapRange(0, 0, memBytes); err != nil {
			return nil, err
		}
		pay(sim.CostStaticPT, 1)
		return pt, nil
	case PTDynamic:
		pt := newPageTable()
		if err := pt.mapRange(0, 0, memBytes); err != nil {
			return nil, err
		}
		pay(sim.CostDynamicPT, 1)
		pay(sim.CostDynamicPTTable, uint64(pt.Tables))
		return pt, nil
	case PTNone:
		pay(sim.CostNoPT, 1)
		return nil, nil
	}
	return nil, fmt.Errorf("ukboot: unknown PT mode %d", mode)
}
