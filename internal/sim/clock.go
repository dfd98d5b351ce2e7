// Package sim provides the virtual-time substrate underneath the Unikraft
// reproduction: a cycle-accurate virtual CPU clock, the one table of
// prices every layer pays from (costs.go), and a deterministic random
// source.
//
// Everything above this package (allocators, schedulers, network stack,
// filesystems, applications) runs real algorithms; only the passage of
// time is simulated, by advancing a CPU cycle counter with costs that are
// either algorithmic (bytes copied, descriptors walked) or calibrated
// from the paper's own microbenchmarks (Table 1, Figure 10, §5.2).
package sim

import (
	"fmt"
	"time"
)

// DefaultHz is the clock rate of the paper's evaluation machine, an Intel
// i7-9700K at 3.6 GHz (§5, "Base Evaluation").
const DefaultHz = 3_600_000_000

// CPU is a virtual processor: a monotonically increasing cycle counter at
// a fixed clock rate. It is the single source of time for a simulated
// machine; all micro-libraries pay their costs to it through the
// Machine that owns it.
//
// CPU is not safe for concurrent use; a simulated machine is single-core,
// matching the paper's single-core evaluation setup (§5: "pinning a CPU
// core to the VM").
type CPU struct {
	// Hz is the clock rate in cycles per second.
	Hz uint64

	cycles uint64
}

// advance moves the clock n cycles; only a Machine calls it.
func (c *CPU) advance(n uint64) { c.cycles += n }

// Cycles reports the total cycles elapsed since the CPU was created.
func (c *CPU) Cycles() uint64 { return c.cycles }

// Now reports elapsed virtual time.
func (c *CPU) Now() time.Duration {
	return c.Duration(c.cycles)
}

// Duration converts a cycle count into wall time at the CPU's clock rate.
func (c *CPU) Duration(cycles uint64) time.Duration {
	return time.Duration(float64(cycles) / float64(c.Hz) * float64(time.Second))
}

// ToCycles converts a duration into cycles at the CPU's clock rate.
func (c *CPU) ToCycles(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(float64(d) * float64(c.Hz) / float64(time.Second))
}

// Stopwatch measures an interval of virtual time on a CPU.
type Stopwatch struct {
	cpu   *CPU
	start uint64
}

// StartWatch begins measuring virtual time on cpu.
func StartWatch(cpu *CPU) Stopwatch {
	return Stopwatch{cpu: cpu, start: cpu.Cycles()}
}

// Cycles reports cycles elapsed since the watch was started.
func (s Stopwatch) Cycles() uint64 { return s.cpu.Cycles() - s.start }

// String implements fmt.Stringer for debugging output.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu(%.2fGHz, %v elapsed)", float64(c.Hz)/1e9, c.Now())
}
