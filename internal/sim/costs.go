package sim

import "time"

// Costs is the calibrated cost table for a simulated machine. Every
// constant that originates in the paper cites its source; the remainder
// are engineering estimates chosen so that derived results land in the
// paper's reported ranges (see EXPERIMENTS.md for paper-vs-measured).
//
// All values are CPU cycles at 3.6 GHz unless stated otherwise.
type Costs struct {
	// FunctionCall is the cost of a no-op function call.
	// Table 1: 4.0 cycles (1.11 ns).
	FunctionCall uint64

	// UnikraftSyscall is a Unikraft system call with run-time translation
	// through the syscall shim. Table 1: 84.0 cycles (23.33 ns).
	UnikraftSyscall uint64

	// LinuxSyscall is a Linux/KVM system call with default mitigations
	// (KPTI etc.). Table 1: 222.0 cycles (61.67 ns).
	LinuxSyscall uint64

	// LinuxSyscallNoMitig is a Linux/KVM system call with mitigations
	// disabled. Table 1: 154.0 cycles (42.78 ns).
	LinuxSyscallNoMitig uint64

	// PerByteCopy is the per-byte cost of a memory copy (roughly 16
	// bytes/cycle on a modern core with wide loads).
	PerByteCopyNum, PerByteCopyDen uint64

	// VMExit is the cost of a VM exit + re-entry (virtqueue kick, I/O
	// port access). Literature value ~1-2us on KVM; we use 1.2us.
	VMExit uint64

	// PageTableEntryInit is the per-4KiB-page cost of populating a page
	// table entry during dynamic boot-time initialization. Calibrated so
	// that Fig 21's dynamic series reproduces (32MB→46us ... 3GB→114us
	// over a static floor of 29us).
	PageTableEntryInit uint64

	// StaticPTBoot is the fixed boot cost with a pre-initialized,
	// statically linked page table (Fig 21: 29us for 1GB static).
	StaticPTBoot uint64
}

// DefaultCosts returns the cost table calibrated against the paper's
// i7-9700K testbed.
func DefaultCosts() Costs {
	return Costs{
		FunctionCall:        4,   // Table 1
		UnikraftSyscall:     84,  // Table 1
		LinuxSyscall:        222, // Table 1
		LinuxSyscallNoMitig: 154, // Table 1
		PerByteCopyNum:      1,
		PerByteCopyDen:      16,
		VMExit:              4320, // 1.2us at 3.6GHz
		// Fig 21: dynamic 3GB-32MB spans ~68us over ~778k pages
		// => ~0.31 cycles/page at ns scale; we charge per-page below.
		PageTableEntryInit: 120, // ~33ns per 4KiB PTE write+bookkeeping, amortized per 512-entry table
		StaticPTBoot:       104_400,
	}
}

// CopyCost returns the cycle cost of copying n bytes.
func (c Costs) CopyCost(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n)*c.PerByteCopyNum/c.PerByteCopyDen + 1
}

// Machine bundles the pieces of one simulated computer: its CPU, cost
// table and deterministic random source. Higher layers (boot, devices,
// apps) carry a *Machine and charge their costs through it.
type Machine struct {
	CPU   *CPU
	Costs Costs
	Rand  *Rand
}

// NewMachine builds a machine with the default 3.6 GHz CPU and cost
// table, seeded deterministically.
func NewMachine() *Machine {
	return &Machine{
		CPU:   NewCPU(0),
		Costs: DefaultCosts(),
		Rand:  NewRand(0x5eed_0f_0ff1ce),
	}
}

// NewMachineWithSeed builds a machine like NewMachine but with its
// random source seeded from seed. Fleets of simulated instances (the
// ukpool serving layer) give each instance a distinct deterministic
// seed so per-instance clocks stay independent yet runs reproduce.
func NewMachineWithSeed(seed uint64) *Machine {
	m := NewMachine()
	m.Rand.Seed(seed)
	return m
}

// Charge advances the machine clock by n cycles.
func (m *Machine) Charge(n uint64) { m.CPU.Advance(n) }

// ChargeDuration advances the machine clock by a wall-clock duration.
func (m *Machine) ChargeDuration(d time.Duration) { m.CPU.AdvanceDuration(d) }

// ChargeCopy advances the clock by the cost of copying n bytes.
func (m *Machine) ChargeCopy(n int) { m.CPU.Advance(m.Costs.CopyCost(n)) }
