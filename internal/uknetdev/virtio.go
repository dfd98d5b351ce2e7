package uknetdev

import (
	"fmt"

	"unikraft/internal/sim"
)

// The driver pays per descriptor chain built or reaped
// (sim.CostVirtioTx/Rx); zero-copy I/O means no payload copies on the
// guest side (§3.1: "supporting high performance features like multiple
// queues, zero-copy I/O, and packet batching").
const (
	defaultRing = 256
	defaultMTU  = 1500
)

// VirtioNet is the virtio-net driver attached to a host backend, wired
// to a peer device (the remote end of the cable or the host bridge).
type VirtioNet struct {
	mac     MAC
	machine *sim.Machine
	backend Backend
	tuning  Tuning

	peer *VirtioNet

	rxq, txq []*vring
	started  bool
	stats    Stats

	// dmaPool backs host-side frame snapshots for unmanaged TX buffers,
	// so even the compatibility path allocates nothing per frame once
	// warmed up.
	dmaPool *NetbufPool
}

// vring is one virtqueue: a fixed-capacity ring of waiting packets.
// Descriptors are netbuf pointers; push/pop never allocate. Each ring carries its own clock (the vCPU that polls
// it) and its own kick-coalescing remainder, so multi-queue devices
// charge driver work to the core actually doing it.
type vring struct {
	buf     []*Netbuf
	head    int
	count   int
	machine *sim.Machine
	// unkicked counts frames enqueued on this queue since the last host
	// notification; a kick is charged once it reaches the TxKickBatch.
	unkicked int
}

func newVring(capacity int, m *sim.Machine) *vring {
	return &vring{buf: make([]*Netbuf, capacity), machine: m}
}

func (r *vring) push(nb *Netbuf) bool {
	if r.count == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = nb
	r.count++
	return true
}

func (r *vring) pop() *Netbuf {
	nb := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return nb
}

// newVirtioNet creates an unconfigured device on machine m using the
// given host backend. Wire two devices together with connect.
func newVirtioNet(m *sim.Machine, mac MAC, b Backend) *VirtioNet {
	return &VirtioNet{
		mac: mac, machine: m, backend: b,
		dmaPool: NewNetbufPool(0, defaultMTU+548, 0),
	}
}

// setTuning configures kick coalescing; call before Start.
func (d *VirtioNet) setTuning(t Tuning) { d.tuning = t }

// connect cross-wires two devices (a direct cable, as in the paper's
// DPDK experiment setup, or the host bridge path).
func connect(a, b *VirtioNet) {
	a.peer, b.peer = b, a
}

// Info implements Device.
func (d *VirtioNet) Info() Info {
	return Info{MaxRxQueues: 8, MaxTxQueues: 8, MaxMTU: defaultMTU, Backend: d.backend.Name}
}

// HWAddr implements Device.
func (d *VirtioNet) HWAddr() MAC { return d.mac }

// Configure implements Device.
func (d *VirtioNet) Configure(rxQueues, txQueues int) error {
	if d.started {
		return fmt.Errorf("uknetdev: Configure after Start")
	}
	info := d.Info()
	if rxQueues < 1 || rxQueues > info.MaxRxQueues || txQueues < 1 || txQueues > info.MaxTxQueues {
		return fmt.Errorf("uknetdev: queue counts %d/%d out of range", rxQueues, txQueues)
	}
	d.rxq = make([]*vring, rxQueues)
	d.txq = make([]*vring, txQueues)
	return nil
}

// RxQueueSetup implements Device.
func (d *VirtioNet) RxQueueSetup(q int, cfg QueueConfig) error {
	if q < 0 || q >= len(d.rxq) {
		return ErrBadQueue
	}
	ring := cfg.Ring
	if ring == 0 {
		ring = defaultRing
	}
	d.rxq[q] = newVring(ring, d.queueMachine(cfg))
	return nil
}

// TxQueueSetup implements Device.
func (d *VirtioNet) TxQueueSetup(q int, cfg QueueConfig) error {
	if q < 0 || q >= len(d.txq) {
		return ErrBadQueue
	}
	ring := cfg.Ring
	if ring == 0 {
		ring = defaultRing
	}
	d.txq[q] = newVring(ring, d.queueMachine(cfg))
	return nil
}

// queueMachine resolves the clock a queue charges to: its own vCPU when
// QueueConfig.Machine is set, the device machine otherwise (the
// single-core default, bit-identical to the pre-SMP driver).
func (d *VirtioNet) queueMachine(cfg QueueConfig) *sim.Machine {
	if cfg.Machine != nil {
		return cfg.Machine
	}
	return d.machine
}

// Start implements Device.
func (d *VirtioNet) Start() error {
	if len(d.rxq) == 0 || len(d.txq) == 0 {
		return fmt.Errorf("uknetdev: Start before queue setup")
	}
	for i, q := range d.rxq {
		if q == nil {
			return fmt.Errorf("uknetdev: rx queue %d not set up", i)
		}
	}
	for i, q := range d.txq {
		if q == nil {
			return fmt.Errorf("uknetdev: tx queue %d not set up", i)
		}
	}
	d.started = true
	return nil
}

// TxBurst implements Device. The driver charges descriptor costs and the
// (amortized) kick. Pool-managed buffers are handed to the peer by
// reference — the zero-copy path — while unmanaged buffers are
// snapshotted into a recycled DMA buffer, preserving the historical
// "caller may reuse its buffer immediately" contract.
func (d *VirtioNet) TxBurst(q int, pkts []*Netbuf) (int, bool, error) {
	if !d.started {
		return 0, false, ErrDevStopped
	}
	if q < 0 || q >= len(d.txq) {
		return 0, false, ErrBadQueue
	}
	ring := d.txq[q]
	sent := 0
	for _, nb := range pkts {
		if nb.Len > defaultMTU+14 {
			d.stats.TxDrops++
			continue
		}
		ring.machine.Pay(sim.CostVirtioTx, 1)
		if d.peer != nil {
			if nb.Pooled() {
				d.stats.ZCPackets++
				d.peer.hostDeliver(nb.Ref())
			} else {
				// DMA snapshot of the frame onto the wire, from the
				// peer's recycled buffer pool.
				snap := d.peer.dmaPool.Get()
				snap.Len = copy(snap.Data[snap.Off:], nb.Bytes())
				d.peer.hostDeliver(snap)
			}
		}
		d.stats.TxPackets++
		d.stats.TxBytes += uint64(nb.Len)
		sent++
	}
	if sent > 0 && d.backend.NeedsKick {
		if batch := d.tuning.txBatch(); batch == 1 {
			// Kick per burst: the calibrated default driver behaviour
			// (one notification covers the whole enqueue).
			ring.machine.Pay(sim.CostVMExit, 1)
			d.stats.Kicks++
		} else {
			// Coalesced: one kick per full batch of frames, remainder
			// carried to the next burst (or FlushTx). The remainder is
			// per-queue state: each vCPU coalesces its own kicks.
			ring.unkicked += sent
			kicked := false
			for ring.unkicked >= batch {
				ring.machine.Pay(sim.CostVMExit, 1)
				d.stats.Kicks++
				ring.unkicked -= batch
				kicked = true
			}
			if !kicked {
				d.stats.KicksElided++
			}
		}
	}
	return sent, true, nil
}

// FlushTx implements Device: it charges, per TX queue, the kick
// still owed for frames below a full TxKickBatch (the "delayed
// notification" that a real driver would fire from a timer). Callers
// invoke it at quiescence points so coalescing never under-counts VM
// exits by more than a batch per queue.
func (d *VirtioNet) FlushTx() {
	if !d.backend.NeedsKick {
		return
	}
	for _, ring := range d.txq {
		if ring != nil && ring.unkicked > 0 {
			ring.machine.Pay(sim.CostVMExit, 1)
			d.stats.Kicks++
			ring.unkicked = 0
		}
	}
}

// hostDeliver is the host-side path depositing a frame into this
// device's RX ring. Multi-queue devices steer by RSS hash of the flow
// 4-tuple (see rss.go); single-queue devices skip the parse entirely,
// keeping the calibrated single-core path untouched. It takes ownership
// of one reference on nb.
func (d *VirtioNet) hostDeliver(nb *Netbuf) {
	if !d.started || len(d.rxq) == 0 {
		nb.Release()
		return
	}
	q := d.rxq[0]
	if len(d.rxq) > 1 {
		q = d.rxq[rssSteer(nb.Bytes(), len(d.rxq))]
	}
	if !q.push(nb) {
		d.stats.RxDrops++
		nb.Release()
		return
	}
	d.stats.RxBytes += uint64(nb.Len)
}

// RxBurst implements Device: received frames are copied into the
// caller-owned buffers (the application-owns-all-memory contract of
// §3.1); the ring's buffers recycle to their pools.
func (d *VirtioNet) RxBurst(q int, pkts []*Netbuf) (int, bool, error) {
	if !d.started {
		return 0, false, ErrDevStopped
	}
	if q < 0 || q >= len(d.rxq) {
		return 0, false, ErrBadQueue
	}
	ring := d.rxq[q]
	n := 0
	for n < len(pkts) && ring.count > 0 {
		src := ring.pop()
		nb := pkts[n]
		if len(nb.Data)-nb.Off < src.Len {
			d.stats.RxDrops++
			src.Release()
			continue
		}
		ring.machine.Pay(sim.CostVirtioRx, 1)
		copy(nb.Data[nb.Off:], src.Bytes()) // DMA wrote the app's buffer
		nb.Len = src.Len
		src.Release()
		d.stats.RxPackets++
		n++
	}
	return n, ring.count > 0, nil
}

// RxBurstZC implements Device: ring buffers are handed to the
// caller by reference, no payload copy. The caller owns one reference
// per returned buffer and must Release each when done with it.
func (d *VirtioNet) RxBurstZC(q int, pkts []*Netbuf) (int, bool, error) {
	if !d.started {
		return 0, false, ErrDevStopped
	}
	if q < 0 || q >= len(d.rxq) {
		return 0, false, ErrBadQueue
	}
	ring := d.rxq[q]
	n := 0
	for n < len(pkts) && ring.count > 0 {
		ring.machine.Pay(sim.CostVirtioRx, 1)
		pkts[n] = ring.pop()
		d.stats.RxPackets++
		n++
	}
	return n, ring.count > 0, nil
}

// Stats implements Device.
func (d *VirtioNet) Stats() Stats { return d.stats }

// Machine exposes the owning machine so zero-copy applications coded
// directly against the device (§6.4) can charge their inline packet
// processing to the right clock.
func (d *VirtioNet) Machine() *sim.Machine { return d.machine }

// NewPair builds and starts two connected single-queue devices, the
// common test/benchmark topology (client NIC <-> server NIC). The rings
// are sized 4096 descriptors: benchmark drivers inject whole bursts
// between polls, so the ring must absorb a full 30-connection pipeline
// window (a real system interleaves producer and consumer at packet
// granularity).
func NewPair(ma, mb *sim.Machine, backend Backend) (*VirtioNet, *VirtioNet, error) {
	return NewTunedPair(ma, mb, backend, Tuning{})
}

// NewTunedPair is NewPair with kick coalescing applied to both
// devices: the one-core case of NewMultiQueuePair, whose explicit
// per-queue machine is then the device machine itself.
func NewTunedPair(ma, mb *sim.Machine, backend Backend, t Tuning) (*VirtioNet, *VirtioNet, error) {
	return NewMultiQueuePair(ma, []*sim.Machine{mb}, backend, t)
}

// NewMultiQueuePair builds and starts a connected client/server device
// pair where the server side has one RX/TX queue pair per entry in
// cores — queue i polled by (and charged to) cores[i] — and the client
// keeps a single queue on mc. Incoming server traffic spreads over the
// queues by RSS; this is the SMP benchmark topology (one load
// generator, an N-core guest).
func NewMultiQueuePair(mc *sim.Machine, cores []*sim.Machine, backend Backend, t Tuning) (client, server *VirtioNet, err error) {
	if len(cores) == 0 {
		return nil, nil, fmt.Errorf("uknetdev: NewMultiQueuePair needs at least one core")
	}
	client = newVirtioNet(mc, MAC{0x02, 0, 0, 0, 0, 0xA}, backend)
	server = newVirtioNet(cores[0], MAC{0x02, 0, 0, 0, 0, 0xB}, backend)
	connect(client, server)
	if err := client.startQueues([]*sim.Machine{mc}, t); err != nil {
		return nil, nil, err
	}
	if err := server.startQueues(cores, t); err != nil {
		return nil, nil, err
	}
	return client, server, nil
}

// startQueues applies t, sets up one 4096-descriptor RX/TX queue pair
// per entry of ms, each charged to its machine, and starts the device.
func (d *VirtioNet) startQueues(ms []*sim.Machine, t Tuning) error {
	d.setTuning(t)
	if err := d.Configure(len(ms), len(ms)); err != nil {
		return err
	}
	for i, m := range ms {
		if err := d.RxQueueSetup(i, QueueConfig{Ring: 4096, Machine: m}); err != nil {
			return err
		}
		if err := d.TxQueueSetup(i, QueueConfig{Ring: 4096, Machine: m}); err != nil {
			return err
		}
	}
	return d.Start()
}
