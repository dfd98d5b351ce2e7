// Package baselines carries the comparator systems of the paper's
// evaluation. Two kinds of baseline live here:
//
//   - Mechanistic Linux-family models (native, KVM guest, Docker,
//     Firecracker guest): the same application work as the simulated
//     Unikraft image, plus the syscall-trap and kernel-stack costs that
//     Unikraft eliminates. These are computed, not transcribed.
//
//   - Published-number baselines for the five other unikernel projects
//     (OSv, Rump, Lupine, HermiTux, Mirage) and for static properties of
//     all comparators (image size, minimum memory): we cannot rebuild
//     five operating systems, so their paper-reported figures are
//     encoded as data, clearly labelled, and used to render complete
//     figures (DESIGN.md, substitution table).
package baselines

import "unikraft/internal/sim"

// Runtime models the per-request overhead structure of a Linux-family
// runtime relative to the in-process application work. Every runtime
// traps into the kernel (sim.CostLinuxSyscall) and runs the kernel
// network stack (sim.CostLinuxStackPacket); they differ in what
// virtualization adds per packet.
type Runtime struct {
	Name string
	// VirtPerPacket is added per packet for virtualized I/O
	// (virtio-net + vhost handoff as seen from the guest's core).
	VirtPerPacket uint64
	// ContainerPerPacket is added per packet for veth/bridge hops.
	ContainerPerPacket uint64
}

// allocPenalty multiplies application allocator work: the glibc
// allocator versus the unikernel's tuned backend (§5.3 discusses the
// Mimalloc effect). It is typed so that allocPenalty-1 subtracts from
// the float64 value, not from the exact decimal.
const allocPenalty float64 = 1.15

// The Linux-family catalog; virtualization adds the vhost-net handoff.
var (
	LinuxNative      = Runtime{Name: "linux-native"}
	LinuxKVMGuest    = Runtime{Name: "linux-kvm", VirtPerPacket: 2100}
	DockerNative     = Runtime{Name: "docker", ContainerPerPacket: 900}
	LinuxFirecracker = Runtime{Name: "linux-firecracker", VirtPerPacket: 5200}
)

// RequestShape describes one request's interaction pattern, used to
// translate a Runtime into per-request overhead cycles.
type RequestShape struct {
	// Syscalls per request (amortized under pipelining/batching).
	Syscalls float64
	// Packets per request on the server side (rx+tx, amortized:
	// pipelined requests share segments).
	Packets float64
	// AllocCycles of application allocator work per request.
	AllocCycles float64
}

// OverheadCycles computes the runtime's per-request overhead versus an
// in-process (syscall-free) run of the same application.
func (r Runtime) OverheadCycles(s RequestShape) float64 {
	perPacket := float64(sim.Cycles(sim.CostLinuxStackPacket, 1) + r.VirtPerPacket + r.ContainerPerPacket)
	// Each product is rounded on its own so no platform fuses it into
	// the sum.
	return float64(s.Syscalls*float64(sim.Cycles(sim.CostLinuxSyscall, 1))) +
		float64(s.Packets*perPacket) +
		float64(s.AllocCycles*(allocPenalty-1))
}

// Throughput converts application-work cycles plus runtime overhead
// into requests/second on the paper's 3.6GHz core.
func (r Runtime) Throughput(m *sim.Machine, appCyclesPerReq float64, shape RequestShape) float64 {
	total := appCyclesPerReq + r.OverheadCycles(shape)
	return float64(m.CPU.Hz) / total
}

// --- published-number baselines -----------------------------------------

// PaperThroughput records a comparator's published result for one
// application benchmark, in requests/second, as reported in Fig 12/13.
type PaperThroughput struct {
	System   string
	GetRPS   float64 // Fig 12 GET (or Fig 13 req/s in Get field)
	SetRPS   float64 // Fig 12 SET; 0 for nginx
	Source   string
	Measured bool // false = transcribed from the paper
}

// RedisFig12 is the Fig 12 dataset for systems we do not rebuild.
func RedisFig12() []PaperThroughput {
	return []PaperThroughput{
		{System: "hermitux-uhyve", GetRPS: 0.37e6, SetRPS: 0.24e6, Source: "Fig 12"},
		{System: "linux-fc", GetRPS: 1.14e6, SetRPS: 1.06e6, Source: "Fig 12"},
		{System: "lupine-fc", GetRPS: 1.26e6, SetRPS: 0.93e6, Source: "Fig 12"},
		{System: "rump-kvm", GetRPS: 1.33e6, SetRPS: 1.17e6, Source: "Fig 12"},
		{System: "linux-kvm", GetRPS: 1.54e6, SetRPS: 1.31e6, Source: "Fig 12"},
		{System: "lupine-kvm", GetRPS: 1.82e6, SetRPS: 1.52e6, Source: "Fig 12"},
		{System: "docker-native", GetRPS: 1.95e6, SetRPS: 1.68e6, Source: "Fig 12"},
		{System: "osv-kvm", GetRPS: 1.98e6, SetRPS: 1.54e6, Source: "Fig 12"},
		{System: "linux-native", GetRPS: 2.44e6, SetRPS: 2.01e6, Source: "Fig 12"},
		{System: "unikraft-kvm", GetRPS: 2.68e6, SetRPS: 2.26e6, Source: "Fig 12"},
	}
}

// NginxFig13 is the Fig 13 dataset (requests/second).
func NginxFig13() []PaperThroughput {
	return []PaperThroughput{
		{System: "mirage-solo5", GetRPS: 25.9e3, Source: "Fig 13"},
		{System: "linux-fc", GetRPS: 60.1e3, Source: "Fig 13"},
		{System: "lupine-fc", GetRPS: 71.6e3, Source: "Fig 13"},
		{System: "linux-kvm", GetRPS: 104.5e3, Source: "Fig 13"},
		{System: "rump-kvm", GetRPS: 152.6e3, Source: "Fig 13"},
		{System: "docker-native", GetRPS: 160.3e3, Source: "Fig 13"},
		{System: "linux-native", GetRPS: 175.6e3, Source: "Fig 13"},
		{System: "lupine-kvm", GetRPS: 189.0e3, Source: "Fig 13"},
		{System: "osv-kvm", GetRPS: 232.7e3, Source: "Fig 13"},
		{System: "unikraft-kvm", GetRPS: 291.8e3, Source: "Fig 13"},
	}
}

// ImageSize is one Fig 9 bar (stripped images, no LTO/DCE), bytes.
type ImageSize struct {
	System                      string
	Hello, Nginx, Redis, SQLite int // 0 = not reported
}

// Fig9Sizes transcribes the comparative image sizes for other OSes; the
// Unikraft row is computed by our build system.
func Fig9Sizes() []ImageSize {
	const kb = 1024
	mb := func(v float64) int { return int(v * 1024 * 1024) }
	return []ImageSize{
		{System: "hermitux", Hello: 1300 * kb, Redis: 1500 * kb, SQLite: 2100 * kb},
		{System: "linux-userspace", Hello: 16 * kb, Nginx: 1200 * kb, Redis: 1800 * kb, SQLite: 1100 * kb},
		{System: "lupine", Hello: 1700 * kb, Nginx: mb(3.6), Redis: mb(2.6), SQLite: mb(3.2)},
		{System: "mirage", Hello: mb(3.3)},
		{System: "osv", Hello: mb(4.5), Nginx: mb(5.4), Redis: mb(8.1), SQLite: mb(5.4)},
		{System: "rumprun", Hello: mb(2.8), Nginx: mb(5.4), Redis: mb(3.7), SQLite: mb(3.9)},
	}
}

// MinMemory is one Fig 11 bar (MB to boot each app).
type MinMemory struct {
	System                      string
	Hello, Nginx, Redis, SQLite int // MB; 0 = not reported
}

// Fig11MinMemory transcribes the comparative minimum-memory rows; the
// Unikraft row is probed by ukboot.MinMemory.
func Fig11MinMemory() []MinMemory {
	return []MinMemory{
		{System: "docker", Hello: 6, Nginx: 7, Redis: 7, SQLite: 6},
		{System: "rumprun", Hello: 8, Nginx: 12, Redis: 13, SQLite: 10},
		{System: "hermitux", Hello: 11, Nginx: 0, Redis: 13, SQLite: 10},
		{System: "lupine", Hello: 20, Nginx: 21, Redis: 21, SQLite: 21},
		{System: "osv", Hello: 24, Nginx: 26, Redis: 40, SQLite: 26},
		{System: "linux-microvm", Hello: 29, Nginx: 29, Redis: 30, SQLite: 29},
	}
}

// BootTime is a published comparator boot time (§5.1 text).
type BootTime struct {
	System string
	MS     float64
	VMM    string
}

// PublishedBootTimes lists the §5.1 comparison points.
func PublishedBootTimes() []BootTime {
	return []BootTime{
		{System: "mirage", MS: 1.5, VMM: "solo5"},
		{System: "osv", MS: 4.5, VMM: "firecracker"},
		{System: "rump", MS: 14.5, VMM: "solo5"},
		{System: "hermitux", MS: 31, VMM: "uhyve"},
		{System: "lupine", MS: 70, VMM: "firecracker"},
		{System: "lupine-nokml", MS: 18, VMM: "firecracker"},
		{System: "alpine", MS: 330, VMM: "firecracker"},
	}
}

// Table4Row is one row of the UDP key-value store comparison.
type Table4Row struct {
	Setup, Mode string
	ReqPerSec   float64
	Measured    bool
}

// Table4Published lists the rows our substrate cannot run natively
// (bare-metal Linux, Linux guest, DPDK-in-guest); the Unikraft rows are
// measured from the simulator.
func Table4Published() []Table4Row {
	return []Table4Row{
		{Setup: "linux-baremetal", Mode: "single", ReqPerSec: 769e3},
		{Setup: "linux-baremetal", Mode: "batch", ReqPerSec: 1.1e6},
		{Setup: "linux-guest", Mode: "single", ReqPerSec: 418e3},
		{Setup: "linux-guest", Mode: "batch", ReqPerSec: 627e3},
		{Setup: "linux-guest", Mode: "dpdk", ReqPerSec: 6.4e6},
	}
}
