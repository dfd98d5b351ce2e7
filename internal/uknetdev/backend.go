package uknetdev

import "unikraft/internal/sim"

// Backend models the host-side datapath a virtio-net device attaches to.
// On KVM, uknetdev "can be configured to use the standard virtio-net
// protocol and tap devices in the host (vhost-net ...), but it can also
// offload the datapath to vhost-user (a DPDK-based virtio transport
// running in host userspace) for higher performance — at the cost of
// polling in the host" (§6.2).
//
// The host datapath runs on its own pinned core in the paper's setup, so
// its per-packet cost does not consume guest cycles; it instead bounds
// sustainable throughput. HostCyclesPerPkt is that bound's reciprocal.
type Backend struct {
	Name string

	// HostCyclesPerPkt is the host-core cost to move one packet
	// (tap write + softirq for vhost-net; DPDK ring ops for vhost-user).
	HostCyclesPerPkt uint64
	// HostCyclesPerByte adds a copy cost component on the host side.
	HostCyclesPerByteNum, HostCyclesPerByteDen uint64

	// KickCycles is the guest-side cost of notifying the host (a VM
	// exit). Polling backends (vhost-user) need no kicks.
	KickCycles uint64
	// KicksPerBurst: notifications are amortized over burst enqueues.
	NeedsKick bool
}

// Host backend catalog. Guest/driver costs live in the driver; these are
// host-core datapath costs calibrated so Fig 19 reproduces: vhost-user
// sustains ~13Mp/s at 64B (just under 10GbE line rate), vhost-net
// saturates around 1.3Mp/s.
var (
	// VhostNet is the kernel tap datapath (QEMU default).
	VhostNet = Backend{
		Name:                 "vhost-net",
		HostCyclesPerPkt:     2600, // skb alloc + tap copy + softirq ≈ 720ns
		HostCyclesPerByteNum: 1, HostCyclesPerByteDen: 8,
		KickCycles: 4320, // VM exit ≈ 1.2us
		NeedsKick:  true,
	}

	// VhostUser is the DPDK-based userspace datapath, polling in the
	// host ("at the cost of polling in the host").
	VhostUser = Backend{
		Name:                 "vhost-user",
		HostCyclesPerPkt:     265, // DPDK vhost PMD dequeue+enqueue ≈ 74ns
		HostCyclesPerByteNum: 1, HostCyclesPerByteDen: 16,
		KickCycles: 0, // host polls; no notification needed
		NeedsKick:  false,
	}
)

// HostCost returns the host-core cycles to move one packet of n bytes.
func (b Backend) HostCost(n int) uint64 {
	c := b.HostCyclesPerPkt
	if b.HostCyclesPerByteDen != 0 {
		c += uint64(n) * b.HostCyclesPerByteNum / b.HostCyclesPerByteDen
	}
	return c
}

// LineRate models the physical NIC: 10GbE with standard framing overhead
// (paper testbed: Intel X520 82599EB).
type LineRate struct {
	BitsPerSecond uint64
	// OverheadBytes is per-frame framing cost on the wire: preamble(8) +
	// IFG(12) + FCS(4).
	OverheadBytes int
}

// TenGbE is the paper's NIC.
var TenGbE = LineRate{BitsPerSecond: 10_000_000_000, OverheadBytes: 24}

// MaxPacketsPerSecond returns the line-rate bound for a given frame size
// (Ethernet frame bytes, excluding FCS/preamble/IFG).
func (lr LineRate) MaxPacketsPerSecond(frameBytes int) float64 {
	wire := float64(frameBytes+lr.OverheadBytes) * 8
	return float64(lr.BitsPerSecond) / wire
}

// SustainableTxRate computes the steady-state TX packet rate for a
// driver/backend pair: the pipeline bottleneck across the guest core,
// the host datapath core, and the wire — the Fig 19 model.
func SustainableTxRate(m *sim.Machine, guestCyclesPerPkt uint64, b Backend, lr LineRate, frameBytes int) float64 {
	hz := float64(m.CPU.Hz)
	guest := hz / float64(guestCyclesPerPkt)
	host := guest
	if hc := b.HostCost(frameBytes); hc > 0 {
		host = hz / float64(hc)
	}
	wire := lr.MaxPacketsPerSecond(frameBytes)
	rate := guest
	if host < rate {
		rate = host
	}
	if wire < rate {
		rate = wire
	}
	return rate
}
