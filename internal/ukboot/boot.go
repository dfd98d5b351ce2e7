// Package ukboot implements the boot micro-library: the ordered
// initialization pipeline that takes a Unikraft image from first guest
// instruction to the application's main(), plus the guest page-table
// strategies of §6.1. Timing is charged to the simulated machine, split
// into VMM time and guest time exactly as the paper measures them
// (Fig 10, Fig 14, Fig 21).
package ukboot

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukplat"
	"unikraft/internal/vfscore"
)

// libInitCycles is the guest-side constructor cost of each micro-library
// that registers boot work, calibrated so that the Fig 14 nginx boot
// breakdown (virtio/vfscore/ukbus/rootfs/pthreads/plat/misc/lwip/alloc)
// sums to the paper's per-allocator totals.
var libInitCycles = map[string]uint64{
	"plat":         36_000,    // memregion + console + traps + clock (10us)
	"ukbus":        61_200,    // virtio bus scan (17us)
	"virtio-net":   1_080_000, // per-NIC driver+queue init (300us)
	"virtio-blk":   360_000,   // block device init (100us)
	"lwip":         1_100_000, // network stack init incl. memory pools (306us)
	"uknetdev":     43_200,    // netdev registry (12us)
	"vfscore":      90_000,    // VFS + fd table (25us)
	"ramfs":        54_000,    // rootfs populate (15us)
	"posix":        36_000,    // posix-fdtab/process glue (10us)
	"pthreads":     54_000,    // pthread_embedded init (15us)
	"uksched":      36_000,    // scheduler + idle thread (10us)
	"syscall-shim": 18_000,    // syscall table registration (5us)
	"ukdebug":      7_200,
	"misc":         36_000, // remaining constructors (10us)
}

// LibInitCost exposes the constructor-cost table (read-only use).
func LibInitCost(lib string) (uint64, bool) {
	c, ok := libInitCycles[lib]
	return c, ok
}

// ProfileLibs is the boot-time micro-library list an application
// profile implies: lwip for NIC-bearing apps, the VFS stack, and
// uksched when the profile declares a scheduler. The SDK's boot path
// and the serving experiment both derive their Config.Libs from it, so
// a pool instance charges exactly what a one-off Runtime.Run boots.
func ProfileLibs(nics int, scheduler string) []string {
	var libs []string
	if nics > 0 {
		libs = append(libs, "lwip")
	}
	libs = append(libs, "vfscore", "ramfs")
	if scheduler != "" {
		libs = append(libs, "uksched")
	}
	return libs
}

// Config describes one unikernel instance to boot.
type Config struct {
	// Platform selects the hypervisor/VMM model.
	Platform ukplat.Platform
	// MemBytes is total guest memory.
	MemBytes int
	// ImageBytes is the kernel image size (affects layout & min-memory).
	ImageBytes int
	// StackBytes defaults to 64 KiB.
	StackBytes int
	// PTMode selects the §6.1 paging strategy.
	PTMode PTMode
	// Allocator names the ukalloc backend to initialize as the default
	// heap allocator ("bootalloc", "buddy", "tlsf", "tinyalloc",
	// "mimalloc").
	Allocator string
	// NICs counts attached network devices.
	NICs int
	// VCPUs is the guest vCPU count; 0 or 1 boots the calibrated
	// single-core image. Each application processor beyond the first
	// pays sim.CostSMPAPInit (trampoline + per-CPU areas + idle
	// thread) in an "smp" boot step right after platform init.
	VCPUs int
	// NetQueues is the RX/TX queue-pair count per NIC; 0 or 1 is the
	// single-queue default. Extra queue pairs add monitor-side
	// NICQueueSetup (tap fds, vhost workers, ioeventfds) per NIC and
	// per-queue ring init cycles to each virtio-net constructor.
	NetQueues int
	// Mount9pfs adds the virtio-9p mount step (§5.2 boot cost).
	Mount9pfs bool
	// Libs lists additional micro-libraries whose constructors run at
	// boot, in order (e.g. "lwip", "vfscore", "ramfs").
	Libs []string
	// RootFS mounts a populated root filesystem at boot: "ramfs" (the
	// general vfscore path), "shfs" (the specialized MiniCache volume,
	// bypassing vfscore) or "9pfs" (a shared host export over virtio-9p).
	// Empty means no filesystem state — the calibrated baseline every
	// figure boots with.
	RootFS string
	// Files populates the root filesystem (absolute path -> content).
	Files map[string][]byte
	// PageCachePages bounds the instance's VFS page cache (0 disables;
	// only meaningful for vfscore-backed root filesystems).
	PageCachePages int
	// ParallelInit charges independent constructors in topologically
	// sorted stages — libs with no ordering constraint between them
	// charge max instead of sum, modelling a multi-queue init table.
	// The allocator→scheduler→NIC ordering invariants are preserved:
	// plat, page table and allocator stay strictly sequential, virtio
	// devices wait for the bus scan, lwip waits for its NIC. Off by
	// default; the sequential pipeline is the calibrated baseline.
	ParallelInit bool
	// SnapshotBoot marks the config as destined for snapshot-fork
	// instantiation (Context.Snapshot + Context.Fork). Boot itself is
	// unaffected; MinMemory additionally reserves the clone's private
	// page-table pages so a fork can never boot with less memory than
	// it can fault in.
	SnapshotBoot bool
}

// Step records one timed boot phase.
type Step struct {
	Name     string
	Duration time.Duration
}

// Report is the timing outcome of a boot.
type Report struct {
	VMM   time.Duration
	Guest time.Duration
	Steps []Step
}

// Total is VMM + guest time: the paper's "total boot time".
func (r Report) Total() time.Duration { return r.VMM + r.Guest }

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("boot: vmm=%v guest=%v total=%v", r.VMM, r.Guest, r.Total())
}

// VM is a booted unikernel instance.
type VM struct {
	Machine   *sim.Machine
	Platform  ukplat.Platform
	Config    Config
	Heap      ukalloc.Allocator
	PageTable *PageTable
	Regions   []ukplat.MemRegion
	Report    Report
	// VFS is the instance's live virtual filesystem (Config.RootFS
	// "ramfs"/"9pfs"; nil otherwise), with RootFS the filesystem mounted
	// at /. SHFS is the specialized flat volume when Config.RootFS is
	// "shfs" — it bypasses vfscore entirely, as in the paper's §6.3.
	VFS    *vfscore.VFS
	RootFS vfscore.FS
	SHFS   *shfs.FS
	// NinePHost is the host-side export behind a 9pfs root (shared
	// across forked clones, like a real virtio-9p host directory).
	NinePHost *ramfs.FS
	// InitLibs is the ordered list of boot steps this instance ran (or,
	// for a fork, inherited from its template) — the guest-visible
	// initialized lib set.
	InitLibs []string
	// Forked marks instances instantiated via Context.Fork rather than
	// the full boot pipeline.
	Forked bool

	// ctx is the boot context parts came from and return to on Close.
	ctx   *Context
	parts *parts
}

// parts is what a closed VM hands back to its context, and the next
// boot or fork takes instead of making it again: the heap arena,
// scrubbed to all-zero; the allocator backend over it, which the taker
// re-Inits in place; the sink that backend pays, re-pointed at the
// taker's machine; and the page-table header, with the table pages a
// fork owned kept for the next fork.
type parts struct {
	arena *ukalloc.Arena
	heap  ukalloc.Allocator // nil until an allocator step first succeeds
	sink  heapSink
	pt    PageTable
}

// heapSink is what a VM's allocator pays: its machine, or nothing while
// m is nil — a fork's heap rebuild, which the fork's COW faults already
// charged.
type heapSink struct{ m *sim.Machine }

func (s *heapSink) Pay(id sim.CostID, n uint64) {
	if s.m != nil {
		s.m.Pay(id, n)
	}
}

// stepCache holds the Report.Steps of a context's first boot (or fork),
// which every later one whose steps took the same cycles at the same
// clock rate shares, read-only, as it shares InitLibs and Regions.
type stepCache struct{ rec atomic.Pointer[stepRecord] }

type stepRecord struct {
	hz     uint64
	cycles []uint64
	steps  []Step
}

// steps returns the Report.Steps of a boot whose steps, named names,
// took cycles on cpu.
func (sc *stepCache) steps(cpu *sim.CPU, names []string, cycles []uint64) []Step {
	if r := sc.rec.Load(); r != nil && r.hz == cpu.Hz && slices.Equal(r.cycles, cycles) {
		return r.steps
	}
	steps := make([]Step, len(cycles))
	for i, cyc := range cycles {
		steps[i] = Step{Name: names[i], Duration: cpu.Duration(cyc)}
	}
	sc.rec.CompareAndSwap(nil, &stepRecord{hz: cpu.Hz, cycles: slices.Clone(cycles), steps: steps})
	return steps
}

// stepKind discriminates the precomputed steps a Context replays.
type stepKind uint8

const (
	stepCharge    stepKind = iota // fixed cycle charge
	stepChargeDur                 // fixed wall-duration charge
	stepPageTable                 // charge and attach the guest page table
	stepAlloc                     // initialize the heap allocator
	stepRootFS                    // mount + populate the root filesystem
)

type ctxStep struct {
	name   string
	kind   stepKind
	cycles uint64
	dur    time.Duration
}

// Context is a reusable boot recipe: the config is validated once, the
// memory layout, the page table and the ordered step list with their
// constructor costs are precomputed, and each Boot call only replays the
// charges and runs the genuinely stateful steps (heap allocator, root
// filesystem).
// Booting a fleet of identical instances through one Context — what the
// ukpool serving layer does for every warm or cold start — therefore
// skips all per-boot validation, map lookups and closure allocation
// while charging exactly the virtual time a one-off Boot would.
type Context struct {
	cfg       Config
	vmmDurs   []time.Duration
	steps     []ctxStep
	regions   []ukplat.MemRegion
	heapBytes int
	// pt is the page table BuildPageTable made for this config (nil for
	// PTNone) and ptCycles what it charged: each boot charges ptCycles and
	// gets a header over pt, which copies the tree before it writes.
	pt       *PageTable
	ptCycles uint64
	// initLibs is the ordered step-name list, recorded on every booted
	// (or forked) VM as its initialized lib set.
	initLibs []string
	// stages groups step indices into init stages, booted in order: one
	// singleton stage per step for the sequential pipeline, computeStages'
	// parallel levels when cfg.ParallelInit is set.
	stages [][]int
	// bootNames names each stage's Report step, forkNames each step of
	// a fork, in order; bootSteps and forkSteps share their reports.
	bootNames, forkNames []string
	bootSteps, forkSteps stepCache

	// free holds the parts of closed VMs, every arena scrubbed back to
	// all-zero, for the next Boot or Fork to take; fresh counts the
	// parts (and so the arenas) made because it was empty. A VM owns
	// its parts from its first guest step until Close, so free never
	// holds more than the context's high-water of live VMs.
	mu    sync.Mutex
	free  []*parts
	fresh int
}

// takeParts hands out the parts a closed VM left behind, or new ones
// over an all-zero arena when none wait.
func (c *Context) takeParts() *parts {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return p
	}
	c.fresh++
	c.mu.Unlock()
	return &parts{arena: ukalloc.NewArena(c.heapBytes)}
}

// Arenas reports how many heap arenas the context has made and how many
// of them sit on its free list.
func (c *Context) Arenas() (fresh, free int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fresh, len(c.free)
}

// NewContext validates cfg (filling the stack-size and allocator
// defaults) and precomputes the boot recipe.
func NewContext(cfg Config) (*Context, error) {
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("ukboot: MemBytes must be positive")
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = 64 << 10
	}
	if cfg.Allocator == "" {
		cfg.Allocator = "tlsf"
	}
	if !ValidRootFS(cfg.RootFS) {
		return nil, fmt.Errorf("ukboot: unknown root filesystem %q (have %v)", cfg.RootFS, RootFSNames())
	}
	if len(cfg.Files) > 0 && cfg.RootFS == rootNone {
		return nil, fmt.Errorf("ukboot: Files set but no RootFS selected (have %v)", RootFSNames())
	}
	if cfg.VCPUs < 0 {
		return nil, fmt.Errorf("ukboot: VCPUs must be non-negative, got %d", cfg.VCPUs)
	}
	if cfg.NetQueues < 0 {
		return nil, fmt.Errorf("ukboot: NetQueues must be non-negative, got %d", cfg.NetQueues)
	}
	c := &Context{cfg: cfg}

	// VMM phase: monitor start plus per-NIC plumbing (and, for
	// multi-queue NICs, per-extra-queue-pair plumbing). Kept as separate
	// durations so cycle rounding matches the one-off pipeline exactly.
	c.vmmDurs = append(c.vmmDurs, cfg.Platform.VMMSetup)
	for i := 0; i < cfg.NICs; i++ {
		c.vmmDurs = append(c.vmmDurs, cfg.Platform.NICSetup)
		for q := 1; q < cfg.NetQueues; q++ {
			c.vmmDurs = append(c.vmmDurs, cfg.Platform.NICQueueSetup)
		}
	}

	charge := func(name string) {
		cyc, ok := libInitCycles[name]
		if !ok {
			cyc = libInitCycles["misc"]
		}
		c.steps = append(c.steps, ctxStep{name: name, kind: stepCharge, cycles: cyc})
	}

	charge("plat")
	if cfg.Platform.GuestExtra > 0 {
		c.steps = append(c.steps, ctxStep{name: "plat-extra", kind: stepChargeDur, dur: cfg.Platform.GuestExtra})
	}
	if cfg.VCPUs > 1 {
		// AP bringup sits in the sequential platform prefix: application
		// processors come up one SIPI at a time before paging and the
		// heap exist, so this step never joins a parallel stage.
		c.steps = append(c.steps, ctxStep{name: "smp", kind: stepCharge,
			cycles: sim.Cycles(sim.CostSMPAPInit, uint64(cfg.VCPUs-1))})
	}
	c.steps = append(c.steps, ctxStep{name: "pagetable", kind: stepPageTable})
	pt, err := BuildPageTable(func(id sim.CostID, n uint64) { c.ptCycles += sim.Cycles(id, n) }, cfg.PTMode, cfg.MemBytes)
	if err != nil {
		return nil, fmt.Errorf("ukboot: step pagetable: %w", err)
	}
	c.pt = pt

	c.regions = ukplat.Layout(cfg.ImageBytes, cfg.MemBytes, cfg.StackBytes)
	for _, r := range c.regions {
		if r.Kind == ukplat.RegionHeap {
			c.heapBytes = r.Bytes
		}
	}
	c.steps = append(c.steps, ctxStep{name: "alloc:" + cfg.Allocator, kind: stepAlloc})

	if cfg.NICs > 0 || cfg.Mount9pfs || cfg.RootFS == Root9pfs {
		charge("ukbus")
	}
	for i := 0; i < cfg.NICs; i++ {
		// Extra queue pairs extend the driver constructor in place (same
		// step name, so stage deps and the initialized-lib list are
		// unchanged); at one queue the charge is bit-identical to the
		// calibrated single-queue constructor.
		cyc := libInitCycles["virtio-net"]
		if cfg.NetQueues > 1 {
			cyc += sim.Cycles(sim.CostNetQueueInit, uint64(cfg.NetQueues-1))
		}
		c.steps = append(c.steps, ctxStep{name: "virtio-net", kind: stepCharge, cycles: cyc})
	}
	if cfg.Mount9pfs {
		c.steps = append(c.steps, ctxStep{name: "9pfs", kind: stepChargeDur, dur: cfg.Platform.Mount9pfs})
	}
	for _, lib := range cfg.Libs {
		charge(lib)
	}
	if cfg.RootFS != rootNone {
		c.steps = append(c.steps, ctxStep{name: "rootfs:" + cfg.RootFS, kind: stepRootFS})
	}
	charge("misc")
	for _, st := range c.steps {
		c.initLibs = append(c.initLibs, st.name)
	}
	if cfg.ParallelInit {
		c.computeStages()
	} else {
		for i := range c.steps {
			c.stages = append(c.stages, []int{i})
		}
	}
	for _, idxs := range c.stages {
		if len(idxs) == 1 {
			c.bootNames = append(c.bootNames, c.steps[idxs[0]].name)
			continue
		}
		names := make([]string, len(idxs))
		for i, idx := range idxs {
			names[i] = c.steps[idx].name
		}
		c.bootNames = append(c.bootNames, "stage("+strings.Join(names, "+")+")")
	}
	c.forkNames = []string{forkStepPT, forkStepFaults, forkStepHeap}
	if slices.Contains(cfg.Libs, "uksched") {
		c.forkNames = append(c.forkNames, forkStepSched)
	}
	if cfg.RootFS != rootNone {
		c.forkNames = append(c.forkNames, forkStepRootFS)
	}
	return c, nil
}

// initStageDeps captures the genuine ordering constraints between
// post-allocator constructors: virtio devices need the bus scan, lwip
// needs its NIC driver and netdev registry, ramfs/posix mount on
// vfscore, pthreads needs the scheduler. Everything else only depends
// on the allocator and parallelizes freely.
var initStageDeps = map[string][]string{
	"virtio-net": {"ukbus"},
	"virtio-blk": {"ukbus"},
	"9pfs":       {"ukbus"},
	"uknetdev":   {"ukbus"},
	"lwip":       {"virtio-net", "uknetdev"},
	"ramfs":      {"vfscore"},
	"posix":      {"vfscore"},
	"pthreads":   {"uksched"},
}

// computeStages topologically levels the step list into parallel init
// stages. The prefix up to and including the allocator step is strictly
// sequential (each step its own stage: plat brings up the console and
// traps the page table needs, the page table maps the memory the heap
// carves up); the trailing "misc" catch-all is pinned to a final stage
// of its own. Steps sharing a level charge max, not sum, when booted.
func (c *Context) computeStages() {
	allocIdx := -1
	for i, st := range c.steps {
		if st.kind == stepAlloc {
			allocIdx = i
		}
	}
	for i := 0; i <= allocIdx; i++ {
		c.stages = append(c.stages, []int{i})
	}
	var body, miscIdx, statefulIdx []int
	levels := map[string]int{}
	for i := allocIdx + 1; i < len(c.steps); i++ {
		if c.steps[i].name == "misc" {
			miscIdx = append(miscIdx, i)
			continue
		}
		if c.steps[i].kind == stepRootFS {
			// Stateful post-allocator steps (the rootfs mount) run in
			// their own sequential stage after the constructor levels:
			// the mount needs vfscore (and, for 9pfs, the bus scan)
			// initialized, and bootStaged only parallelizes pure
			// charges.
			statefulIdx = append(statefulIdx, i)
			continue
		}
		body = append(body, i)
		levels[c.steps[i].name] = 0
	}
	// Fixpoint leveling: lvl(step) = 1 + max lvl of its present deps.
	// Iterating to stability handles deps regardless of list order; the
	// dep graph is a shallow DAG, so this converges in a few passes.
	for changed := true; changed; {
		changed = false
		for _, i := range body {
			name := c.steps[i].name
			lvl := 0
			for _, dep := range initStageDeps[name] {
				if dl, ok := levels[dep]; ok && dl+1 > lvl {
					lvl = dl + 1
				}
			}
			if lvl > levels[name] {
				levels[name] = lvl
				changed = true
			}
		}
	}
	byLevel := map[int][]int{}
	maxLvl := -1
	for _, i := range body {
		lvl := levels[c.steps[i].name]
		byLevel[lvl] = append(byLevel[lvl], i)
		if lvl > maxLvl {
			maxLvl = lvl
		}
	}
	for lvl := 0; lvl <= maxLvl; lvl++ {
		if len(byLevel[lvl]) > 0 {
			c.stages = append(c.stages, byLevel[lvl])
		}
	}
	for _, i := range statefulIdx {
		c.stages = append(c.stages, []int{i})
	}
	if len(miscIdx) > 0 {
		c.stages = append(c.stages, miscIdx)
	}
}

// Boot runs the precomputed pipeline on machine m and returns the
// booted VM. All time costs are charged to m's clock; the Report
// additionally itemizes them.
func (c *Context) Boot(m *sim.Machine) (*VM, error) {
	vm := &VM{Machine: m, Platform: c.cfg.Platform, Config: c.cfg, Regions: c.regions, InitLibs: c.initLibs,
		ctx: c, parts: c.takeParts()}

	// --- VMM phase -----------------------------------------------------
	vmmStart := m.CPU.Cycles()
	for _, d := range c.vmmDurs {
		m.Spend(sim.LayerPlatform, m.CPU.ToCycles(d))
	}
	vm.Report.VMM = m.CPU.Duration(m.CPU.Cycles() - vmmStart)

	// --- Guest phase ---------------------------------------------------
	guestStart := m.CPU.Cycles()
	if err := c.bootStaged(vm, m); err != nil {
		vm.Close()
		return nil, err
	}
	vm.Report.Guest = m.CPU.Duration(m.CPU.Cycles() - guestStart)
	return vm, nil
}

// runStep executes one boot step, charging its cost, attaching the
// shared page table and building any stateful pieces (heap allocator,
// root filesystem).
func (c *Context) runStep(vm *VM, m *sim.Machine, st ctxStep) error {
	switch st.kind {
	case stepCharge:
		m.Spend(sim.LayerBoot, st.cycles)
	case stepChargeDur:
		m.Spend(sim.LayerBoot, m.CPU.ToCycles(st.dur))
	case stepPageTable:
		m.Spend(sim.LayerBoot, c.ptCycles)
		if c.pt != nil {
			vm.parts.pt.share(c.pt)
			vm.PageTable = &vm.parts.pt
		}
	case stepAlloc:
		vm.parts.sink.m = m
		if err := c.attachHeap(vm); err != nil {
			return fmt.Errorf("ukboot: step %s: %w", st.name, err)
		}
	case stepRootFS:
		if err := c.mountRootFS(vm, m); err != nil {
			return fmt.Errorf("ukboot: step %s: %w", st.name, err)
		}
	}
	return nil
}

// attachHeap initializes the configured allocator over the VM's arena,
// paying its parts' sink, and makes it the VM's heap: the backend a
// closed VM left is re-Inited in place, a new one made only when there
// is none.
func (c *Context) attachHeap(vm *VM) error {
	p := vm.parts
	if p.heap != nil {
		if err := p.heap.Init(p.arena); err != nil {
			return err
		}
	} else {
		a, err := ukalloc.NewOver(c.cfg.Allocator, &p.sink, p.arena)
		if err != nil {
			return err
		}
		p.heap = a
	}
	vm.Heap = p.heap
	return nil
}

// release scrubs the parts of a VM that no longer runs — a failed Init
// wrote nothing the marks do not cover — and puts them on the free
// list.
func (c *Context) release(p *parts) {
	p.arena.Scrub()
	p.sink.m = nil
	p.pt.recycle()
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// bootStaged replays the guest pipeline stage by stage. A singleton
// stage runs its step and reports it under the step's name — the whole
// of a sequential boot; a multi-step stage models its members
// initializing concurrently, so the stage charges the max member cost
// instead of the sum. Only pure charges reach such a stage.
func (c *Context) bootStaged(vm *VM, m *sim.Machine) error {
	var buf [16]uint64
	cycles := buf[:0]
	for _, idxs := range c.stages {
		s := m.CPU.Cycles()
		if len(idxs) == 1 {
			if err := c.runStep(vm, m, c.steps[idxs[0]]); err != nil {
				return err
			}
			cycles = append(cycles, m.CPU.Cycles()-s)
			continue
		}
		var max uint64
		for _, idx := range idxs {
			st := c.steps[idx]
			var cyc uint64
			switch st.kind {
			case stepCharge:
				cyc = st.cycles
			case stepChargeDur:
				cyc = m.CPU.ToCycles(st.dur)
			default:
				// Stateful steps (page table, allocator) must stay in
				// the sequential prefix; reaching one here means
				// computeStages regressed, and silently skipping it
				// would boot a VM with no heap.
				return fmt.Errorf("ukboot: stateful step %s in a parallel stage", st.name)
			}
			if cyc > max {
				max = cyc
			}
		}
		m.Spend(sim.LayerBoot, max)
		cycles = append(cycles, m.CPU.Cycles()-s)
	}
	vm.Report.Steps = c.bootSteps.steps(m.CPU, c.bootNames, cycles)
	return nil
}

// Boot runs the full pipeline on machine m and returns the booted VM.
// All time costs are charged to m's clock; the Report additionally
// itemizes them. One-off boots build a fresh Context; fleets should
// build the Context once and call its Boot repeatedly.
func Boot(m *sim.Machine, cfg Config) (*VM, error) {
	c, err := NewContext(cfg)
	if err != nil {
		return nil, err
	}
	return c.Boot(m)
}

// Reset recycles a booted VM into a pristine warm instance: the heap
// allocator is re-initialized in place over the heap region, dropping
// every guest allocation, and the re-init cost is charged to the
// machine.
// That is orders of magnitude cheaper than a fresh boot (no VMM
// instantiation, no page-table build, no driver constructors), which is
// what makes keeping a warm pool worthwhile at all.
func (vm *VM) Reset() error {
	// Re-initialize over the existing arena: the guest's heap region
	// does not move across a recycle, and reusing it keeps host-side
	// reset cost at the allocator's metadata rebuild. The arena keeps
	// the marks of everything the instance wrote so far, so Close still
	// scrubs pages only the earlier allocator state touched.
	if err := vm.Heap.Init(vm.Heap.Arena()); err != nil {
		return fmt.Errorf("ukboot: reset: %w", err)
	}
	// Drop the guest's open descriptors: a recycled instance starts with
	// a pristine fd table (the mount table and page cache survive, like
	// a kernel's across process churn).
	if vm.VFS != nil {
		vm.VFS.Reset()
	}
	return nil
}

// Close hands the VM's parts — heap arena and allocator, page-table
// header — back to the boot context, the arena with exactly the pages
// the guest wrote zeroed. Close is terminal and idempotent: afterwards
// the VM has no heap and no page table, so a late allocation panics
// instead of writing into an arena the next instance owns, and a
// second Close releases nothing.
func (vm *VM) Close() {
	if vm.parts == nil {
		return
	}
	p := vm.parts
	vm.parts, vm.Heap, vm.PageTable = nil, nil, nil
	vm.ctx.release(p)
}

// snapshotPrivateBytes is the guest memory a forked clone must hold
// beyond a plain boot's demand: private copies of every page-table page
// it can privatize while faulting in its whole address space (one PML4
// plus the PDPT/PD/PT pages covering MemBytes). A clone that boots
// without this reserve can run out of frames mid-fault — which is why
// MinMemory adds it for SnapshotBoot configs.
func snapshotPrivateBytes(cfg Config) int {
	if cfg.PTMode == PTNone {
		return 0
	}
	ceil := func(a, b int) int { return (a + b - 1) / b }
	pages := ceil(cfg.MemBytes, pageSize)
	pt := ceil(pages, entryCount)
	pd := ceil(pt, entryCount)
	pdpt := ceil(pd, entryCount)
	return (1 + pdpt + pd + pt) * pageSize
}

// MinMemory probes the smallest total guest memory (in the platform's
// granularity) at which cfg boots and the application can allocate
// appFloor bytes of startup heap — the Fig 11 measurement ("minimum
// amount of memory required to boot various applications"). For
// SnapshotBoot configs the probe additionally reserves the forked
// clone's private page-table pages (snapshotPrivateBytes), so the
// reported minimum is safe for fork-instantiated instances too.
func MinMemory(cfg Config, appFloor int) (int, error) {
	gran := cfg.Platform.MemGranularity
	if gran <= 0 {
		gran = 1 << 20
	}
	for mem := gran; mem <= 1<<30; mem += gran {
		c := cfg
		c.MemBytes = mem
		if ok := bootsWithFloor(c, appFloor); ok {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("ukboot: no memory size up to 1GiB boots %+v", cfg)
}

func bootsWithFloor(cfg Config, appFloor int) bool {
	m := sim.NewMachine()
	vm, err := Boot(m, cfg)
	if err != nil {
		return false
	}
	defer vm.Close()
	if cfg.SnapshotBoot {
		// A forked clone's page-table copies come out of guest memory:
		// reserve them up front so the probed minimum can never admit a
		// clone that would run out of frames while faulting in.
		appFloor += snapshotPrivateBytes(cfg)
	}
	// Simulate app startup allocations in 64KiB chunks (buffers, pools,
	// arenas) — all must succeed for the app to come up.
	const chunk = 64 << 10
	for got := 0; got < appFloor; got += chunk {
		n := chunk
		if appFloor-got < n {
			n = appFloor - got
		}
		if _, err := vm.Heap.Malloc(n); err != nil {
			return false
		}
	}
	return true
}
