// Package uknetdev implements the paper's core networking API (§3.1): a
// driver-side interface decoupling network drivers from network stacks,
// designed after DPDK's rte_netdev. The paper's API also offers
// interrupt-driven and mixed operation; this model implements polling
// only — the mode its specialized path runs in (§6.4) and the only one
// any caller here uses — so no RX interrupt is modelled.
//
// The API mirrors the paper's C signatures: applications own all memory
// (uk_netbuf wrappers around app-allocated buffers), drivers register
// send/receive callbacks, and uk_netdev_tx_burst/rx_burst move arrays of
// packet buffers with counts passed in and out.
package uknetdev

import (
	"errors"
	"fmt"

	"unikraft/internal/sim"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders the conventional colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Errors returned by devices.
var (
	ErrDevStopped = errors.New("uknetdev: device not started")
	ErrBadQueue   = errors.New("uknetdev: no such queue")
)

// Info describes driver capabilities the application reads before
// configuring the device ("API interfaces for applications to provide
// necessary information (e.g., supported number of queues and
// offloading features)", §3.1).
type Info struct {
	MaxRxQueues, MaxTxQueues int
	MaxMTU                   int
	// Backend names the host-side datapath (vhost-net, vhost-user...).
	Backend string
}

// QueueConfig configures one queue; memory management stays with the
// application, which is why the ring size is here but no buffer pool.
type QueueConfig struct {
	Ring int // descriptor count (power of two)
	// Machine, when non-nil, is the vCPU that owns this queue: driver
	// descriptor work and kicks for the queue are charged to it
	// instead of the device's machine. Single-core guests leave it nil
	// and every queue charges the device machine, exactly as before
	// multi-queue support existed.
	Machine *sim.Machine
}

// Stats counts device activity.
type Stats struct {
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	TxDrops, RxDrops     uint64
	Kicks                uint64 // guest->host notifications (VM exits)
	// IRQs counts host->guest interrupts. Every datapath polls, so it is
	// always 0; it stays for the benchmark's per-layer record.
	IRQs uint64
	// KicksElided counts notifications that coalescing suppressed
	// (batch accounting; see Tuning).
	KicksElided uint64
	// ZCPackets counts packets that crossed the device without a payload
	// copy (pool-managed netbuf handoff).
	ZCPackets uint64
}

// Tuning coalesces device notifications, the §3.1 batching axis
// ("supporting high performance features like ... packet batching").
// The zero value is the paper's default driver behaviour: one kick per
// TX burst.
type Tuning struct {
	// TxKickBatch amortizes guest→host kicks (VM-exit-class cost) over
	// batches: with a batch of N the driver charges exactly one
	// notification per N enqueued frames, carrying remainders across
	// bursts (stragglers below a full batch are charged by FlushTx).
	// 0 or 1 keeps the calibrated default: one kick per TX burst.
	TxKickBatch int
}

func (t Tuning) txBatch() int {
	if t.TxKickBatch < 1 {
		return 1
	}
	return t.TxKickBatch
}

// ZeroCopyDevice is Device: every device hands pool-managed netbufs
// across without payload copies. The name stays for callers that assert
// against it.
type ZeroCopyDevice = Device

// Device is the uk_netdev interface. Drivers register their callbacks in
// a uk_netdev structure; here, they implement this interface.
type Device interface {
	// Info reports capabilities.
	Info() Info
	// HWAddr returns the device MAC.
	HWAddr() MAC
	// Configure sets queue counts; must precede queue setup.
	Configure(rxQueues, txQueues int) error
	// RxQueueSetup / TxQueueSetup prepare one queue.
	RxQueueSetup(q int, cfg QueueConfig) error
	TxQueueSetup(q int, cfg QueueConfig) error
	// Start enables the datapath.
	Start() error

	// TxBurst enqueues as many of pkts as fit on queue q. It returns
	// the count enqueued and whether the queue has room for more
	// (mirroring the paper's status flags).
	TxBurst(q int, pkts []*Netbuf) (n int, more bool, err error)
	// RxBurst fills pkts with received packets, copying into the
	// caller's buffers. It returns the count received and whether more
	// packets are already waiting.
	RxBurst(q int, pkts []*Netbuf) (n int, more bool, err error)
	// RxBurstZC is RxBurst by reference: it fills pkts with the ring's
	// own buffers and transfers ownership to the caller (one reference
	// per returned buffer, Release when done).
	RxBurstZC(q int, pkts []*Netbuf) (n int, more bool, err error)
	// FlushTx charges any kick still owed for frames below a full
	// TxKickBatch.
	FlushTx()

	// Stats returns counters.
	Stats() Stats
}
