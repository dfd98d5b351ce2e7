// Package ukplat is the platform abstraction layer of the Unikraft
// reproduction: the per-hypervisor/VMM glue (QEMU/KVM, QEMU microVM,
// Firecracker, Solo5, Xen, and the linuxu debug target) that the paper's
// Figure 4 shows at the bottom of the stack.
//
// Each platform model carries the measured VMM-side instantiation cost
// (the dominant part of total boot time — Fig 10) plus per-device and
// per-hypercall costs. Guest-side boot work is modelled in ukboot; the
// split matches the paper's measurement methodology: "we measure both
// the time taken by the VMM and the boot time of the actual unikernel"
// (§5.1).
package ukplat

import (
	"sort"
	"time"
)

// Platform describes one virtualization target.
type Platform struct {
	// Name as used by the build system ("kvm", "xen", "linuxu", ...).
	Name string
	// VMM is the monitor program ("qemu", "firecracker", ...).
	VMM string

	// VMMSetup is the monitor-side time from invocation to the first
	// guest instruction, calibrated from Fig 10.
	VMMSetup time.Duration
	// NICSetup is the additional monitor-side cost per attached NIC
	// (tap/vhost plumbing); Fig 10's "QEMU (1NIC)" bar.
	NICSetup time.Duration
	// NICQueueSetup is the additional monitor-side cost per extra NIC
	// queue pair beyond the first (multi-queue tap fds, one vhost worker
	// and irqfd/ioeventfd pair per queue). A fraction of NICSetup: the
	// tap/bridge plumbing exists, each queue only adds descriptor-ring
	// wiring.
	NICQueueSetup time.Duration
	// GuestExtra is additional guest-side boot latency inherent to the
	// platform (e.g. Firecracker's minimal-but-slower device model:
	// "boot times are slightly longer but do not exceed 1ms", §5.1).
	GuestExtra time.Duration

	// ForkSetup is the monitor-side cost of instantiating a clone from a
	// captured snapshot instead of cold-starting the monitor: mapping the
	// template's guest memory copy-on-write, restoring vCPU and device
	// state, and resuming. Orders of magnitude below VMMSetup — the
	// snapshot path skips machine model construction, firmware/ROM setup
	// and device probing (cf. Firecracker snapshot-restore and the uTNT
	// mass-instantiation numbers).
	ForkSetup time.Duration
	// ForkNICSetup is the additional monitor-side cost per NIC when
	// forking: the tap/vhost plumbing already exists in the template, so
	// only per-clone queue remapping remains.
	ForkNICSetup time.Duration

	// Hypercall is the guest->host transition cost for this platform
	// (virtqueue kick, Xen event channel, ...).
	Hypercall time.Duration

	// Mount9pfs is the boot-time cost of enabling the 9pfs device:
	// "0.3ms to the boot time of Unikraft VMs on KVM, and 2.7ms on Xen"
	// (§5.2).
	Mount9pfs time.Duration

	// MemGranularity is the unit the monitor allocates guest memory in;
	// minimum-memory probing (Fig 11) rounds up to it.
	MemGranularity int

	// HelloImageBytes is the size of the minimal helloworld image for
	// this platform (§3: "200KB in size on KVM and 40KB on Xen"); used
	// as the platform code's contribution to image-size accounting.
	HelloImageBytes int
}

// The platform catalog. Values cite Fig 10 unless noted.
var (
	// KVMQemu is stock QEMU/KVM: the slowest monitor (~38.4ms to boot a
	// helloworld, nearly all of it VMM time).
	KVMQemu = Platform{
		Name: "kvm", VMM: "qemu",
		VMMSetup:        38300 * time.Microsecond,
		NICSetup:        4000 * time.Microsecond,
		NICQueueSetup:   400 * time.Microsecond,
		ForkSetup:       4800 * time.Microsecond,
		ForkNICSetup:    500 * time.Microsecond,
		Hypercall:       1200 * time.Nanosecond,
		Mount9pfs:       300 * time.Microsecond,
		MemGranularity:  1 << 20,
		HelloImageBytes: 200 << 10,
	}

	// KVMQemuMicroVM is QEMU's stripped microvm machine type (~9.1ms).
	KVMQemuMicroVM = Platform{
		Name: "kvm", VMM: "qemu-microvm",
		VMMSetup:        9000 * time.Microsecond,
		NICSetup:        2500 * time.Microsecond,
		NICQueueSetup:   250 * time.Microsecond,
		ForkSetup:       1400 * time.Microsecond,
		ForkNICSetup:    300 * time.Microsecond,
		Hypercall:       1200 * time.Nanosecond,
		Mount9pfs:       300 * time.Microsecond,
		MemGranularity:  1 << 20,
		HelloImageBytes: 200 << 10,
	}

	// KVMFirecracker is AWS Firecracker [4] (~3.1ms total; guest side
	// slightly slower than QEMU's, staying under 1ms).
	KVMFirecracker = Platform{
		Name: "kvm", VMM: "firecracker",
		VMMSetup:        2400 * time.Microsecond,
		NICSetup:        1200 * time.Microsecond,
		NICQueueSetup:   120 * time.Microsecond,
		ForkSetup:       400 * time.Microsecond,
		ForkNICSetup:    150 * time.Microsecond,
		GuestExtra:      600 * time.Microsecond,
		Hypercall:       1500 * time.Nanosecond,
		Mount9pfs:       300 * time.Microsecond,
		MemGranularity:  1 << 20,
		HelloImageBytes: 200 << 10,
	}

	// Solo5 is the Solo5 unikernel monitor [78] (~3.1ms).
	Solo5 = Platform{
		Name: "solo5", VMM: "solo5-hvt",
		VMMSetup:        3050 * time.Microsecond,
		NICSetup:        800 * time.Microsecond,
		NICQueueSetup:   80 * time.Microsecond,
		ForkSetup:       520 * time.Microsecond,
		ForkNICSetup:    120 * time.Microsecond,
		Hypercall:       1000 * time.Nanosecond,
		Mount9pfs:       300 * time.Microsecond,
		MemGranularity:  1 << 20,
		HelloImageBytes: 200 << 10,
	}

	// Xen is the Xen hypervisor with the standard (xl) toolstack. The
	// paper leaves Xen throughput to future work but reports the 40KB
	// hello image (§3) and the 2.7ms 9pfs mount cost (§5.2).
	Xen = Platform{
		Name: "xen", VMM: "xl",
		VMMSetup:        125000 * time.Microsecond,
		NICSetup:        9000 * time.Microsecond,
		NICQueueSetup:   900 * time.Microsecond,
		ForkSetup:       14000 * time.Microsecond,
		ForkNICSetup:    1100 * time.Microsecond,
		Hypercall:       900 * time.Nanosecond,
		Mount9pfs:       2700 * time.Microsecond,
		MemGranularity:  1 << 20,
		HelloImageBytes: 40 << 10,
	}

	// LinuxUserspace is the linuxu debug target (§7 "Debugging"): the
	// unikernel runs as a Linux process, so there is no VMM at all and
	// syscall-priced host services.
	LinuxUserspace = Platform{
		Name: "linuxu", VMM: "none",
		VMMSetup:        500 * time.Microsecond, // fork+exec+ld.so
		ForkSetup:       80 * time.Microsecond,  // plain fork(), COW by the host kernel
		Hypercall:       62 * time.Nanosecond,   // a host syscall (Table 1)
		Mount9pfs:       50 * time.Microsecond,
		MemGranularity:  4 << 10,
		HelloImageBytes: 220 << 10,
	}
)

// all lists the platform catalog.
func all() []Platform {
	return []Platform{KVMQemu, KVMQemuMicroVM, KVMFirecracker, Solo5, Xen, LinuxUserspace}
}

// ByVMM returns the platform whose monitor matches name, or false.
func ByVMM(name string) (Platform, bool) {
	for _, p := range all() {
		if p.VMM == name {
			return p, true
		}
	}
	return Platform{}, false
}

// ByName returns the default platform entry for a platform name ("kvm"
// maps to the stock QEMU monitor), or false. Several VMMs can serve one
// platform; ByVMM selects among them.
func ByName(name string) (Platform, bool) {
	for _, p := range all() {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// Names lists the distinct platform names, sorted.
func Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range all() {
		if !seen[p.Name] {
			seen[p.Name] = true
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// VMMs lists the monitor names, sorted.
func VMMs() []string {
	out := make([]string, 0, len(all()))
	for _, p := range all() {
		out = append(out, p.VMM)
	}
	sort.Strings(out)
	return out
}

// MemRegion describes one guest-physical memory region handed to the
// boot code, mirroring ukplat's memregion API.
type MemRegion struct {
	Base  uint64
	Bytes int
	// Kind labels the region's use.
	Kind RegionKind
}

// RegionKind labels memory regions.
type RegionKind int

// Region kinds.
const (
	RegionKernel RegionKind = iota // image text/data/bss
	RegionHeap
	RegionStack
)

// Layout computes the guest-physical layout for an image of the given
// size in a VM with total memory totalBytes, following Unikraft's
// kvm-plat layout: image at 1MiB, stack at the top, heap in between.
func Layout(imageBytes, totalBytes, stackBytes int) []MemRegion {
	const imageBase = 1 << 20
	heapBase := uint64(imageBase + imageBytes)
	heapBytes := totalBytes - imageBytes - stackBytes - imageBase
	if heapBytes < 0 {
		heapBytes = 0
	}
	return []MemRegion{
		{Base: imageBase, Bytes: imageBytes, Kind: RegionKernel},
		{Base: heapBase, Bytes: heapBytes, Kind: RegionHeap},
		{Base: heapBase + uint64(heapBytes), Bytes: stackBytes, Kind: RegionStack},
	}
}
