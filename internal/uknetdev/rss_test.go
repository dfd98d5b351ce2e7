package uknetdev

import (
	"testing"

	"unikraft/internal/sim"
)

// udpFrame builds a minimal Ethernet/IPv4/UDP frame carrying the given
// 4-tuple, for steering tests.
func udpFrame(srcIP, dstIP [4]byte, srcPort, dstPort uint16) *Netbuf {
	nb := NewNetbuf(0, 64)
	b := nb.Data
	b[ethTypeOff], b[ethTypeOff+1] = 0x08, 0x00
	ip := b[ethHeaderLen:]
	ip[0] = 0x45 // IPv4, 20-byte header
	ip[ipProtoOff] = ipProtoUDP
	copy(ip[ipSrcOff:], srcIP[:])
	copy(ip[ipDstOff:], dstIP[:])
	ip[20], ip[21] = byte(srcPort>>8), byte(srcPort)
	ip[22], ip[23] = byte(dstPort>>8), byte(dstPort)
	nb.Len = 64
	return nb
}

var (
	rssSrc = [4]byte{10, 0, 0, 1}
	rssDst = [4]byte{10, 0, 0, 2}
)

func ip32(a [4]byte) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

func TestRSSQueueStable(t *testing.T) {
	for queues := 2; queues <= 8; queues *= 2 {
		for port := uint16(40000); port < 40064; port++ {
			q1 := RSSQueue(ip32(rssSrc), ip32(rssDst), port, 5000, ipProtoUDP, queues)
			q2 := RSSQueue(ip32(rssSrc), ip32(rssDst), port, 5000, ipProtoUDP, queues)
			if q1 != q2 {
				t.Fatalf("RSSQueue not stable: %d vs %d", q1, q2)
			}
			if q1 < 0 || q1 >= queues {
				t.Fatalf("RSSQueue = %d out of [0,%d)", q1, queues)
			}
		}
	}
}

func TestRSSQueueSingleQueueAlwaysZero(t *testing.T) {
	for port := uint16(1); port < 200; port++ {
		if q := RSSQueue(ip32(rssSrc), ip32(rssDst), port, 80, ipProtoTCP, 1); q != 0 {
			t.Fatalf("queues=1 steered to %d", q)
		}
	}
}

// Every queue must be reachable: a load generator scanning source ports
// finds a port for each of 8 queues quickly.
func TestRSSQueueCoversAllQueues(t *testing.T) {
	const queues = 8
	seen := map[int]bool{}
	for port := uint16(40000); port < 41000 && len(seen) < queues; port++ {
		seen[RSSQueue(ip32(rssSrc), ip32(rssDst), port, 5000, ipProtoUDP, queues)] = true
	}
	if len(seen) != queues {
		t.Fatalf("1000 source ports covered only %d of %d queues", len(seen), queues)
	}
}

func TestRSSSteerMatchesRSSQueue(t *testing.T) {
	for port := uint16(40000); port < 40032; port++ {
		frame := udpFrame(rssSrc, rssDst, port, 5000)
		want := RSSQueue(ip32(rssSrc), ip32(rssDst), port, 5000, ipProtoUDP, 4)
		if got := rssSteer(frame.Bytes(), 4); got != want {
			t.Fatalf("rssSteer = %d, RSSQueue = %d for port %d", got, want, port)
		}
	}
}

func TestRSSSteerNonIPToQueueZero(t *testing.T) {
	arp := NewNetbuf(0, 64)
	arp.Len = 64
	arp.Data[ethTypeOff], arp.Data[ethTypeOff+1] = 0x08, 0x06 // ARP
	if q := rssSteer(arp.Bytes(), 8); q != 0 {
		t.Fatalf("ARP steered to queue %d, want 0", q)
	}
	runt := NewNetbuf(0, 8)
	runt.Len = 8
	if q := rssSteer(runt.Bytes(), 8); q != 0 {
		t.Fatalf("runt frame steered to queue %d, want 0", q)
	}
}

// Non-initial fragments carry no L4 header; all fragments of a datagram
// must land on one queue (hashed by IPs alone).
func TestRSSSteerFragments(t *testing.T) {
	first := udpFrame(rssSrc, rssDst, 41234, 5000)
	frag := udpFrame(rssSrc, rssDst, 0x6162, 0x6364) // "payload" bytes, not ports
	frag.Data[ethHeaderLen+ipFragOff+1] = 5          // fragment offset 5
	frag2 := udpFrame(rssSrc, rssDst, 0x7172, 0x7374)
	frag2.Data[ethHeaderLen+ipFragOff+1] = 9
	q1 := rssSteer(frag.Bytes(), 8)
	q2 := rssSteer(frag2.Bytes(), 8)
	if q1 != q2 {
		t.Fatalf("fragments of one flow steered apart: %d vs %d", q1, q2)
	}
	_ = first
}

// Multi-queue delivery: frames land on the RSS-chosen ring and their
// driver-side RX cost is charged to that queue's own machine.
func TestMultiQueueSteeringAndCharging(t *testing.T) {
	mc := sim.NewMachine()
	cores := []*sim.Machine{sim.NewMachine(), sim.NewMachine(), sim.NewMachine(), sim.NewMachine()}
	client, server, err := NewMultiQueuePair(mc, cores, VhostUser, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	// One frame per queue, ports chosen to hit queues 0..3.
	ports := map[int]uint16{}
	for p := uint16(40000); len(ports) < 4; p++ {
		q := RSSQueue(ip32(rssSrc), ip32(rssDst), p, 5000, ipProtoUDP, 4)
		if _, ok := ports[q]; !ok {
			ports[q] = p
		}
	}
	for q := 0; q < 4; q++ {
		if _, _, err := client.TxBurst(0, []*Netbuf{udpFrame(rssSrc, rssDst, ports[q], 5000)}); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 4; q++ {
		if server.Pending(q) != 1 {
			t.Fatalf("queue %d has %d pending, want 1", q, server.Pending(q))
		}
	}
	rx := []*Netbuf{NewNetbuf(0, 2048)}
	for q := 0; q < 4; q++ {
		before := cores[q].CPU.Cycles()
		if n, _, _ := server.RxBurst(q, rx); n != 1 {
			t.Fatalf("RxBurst(%d) = %d, want 1", q, n)
		}
		if got, want := cores[q].CPU.Cycles()-before, sim.Cycles(sim.CostVirtioRx, 1); got != want {
			t.Fatalf("queue %d charged %d cycles, want %d on its own core", q, got, want)
		}
		// No cross-charging: the other cores' clocks are untouched.
		for o := q + 1; o < 4; o++ {
			if cores[o].CPU.Cycles() != 0 {
				t.Fatalf("core %d advanced before its queue was polled", o)
			}
		}
	}
}

// NewTunedPair is NewMultiQueuePair at one core, whose queues name their
// machine explicitly. That is bit-identical to queues that leave
// QueueConfig.Machine unset and fall back to the device machine — the
// pre-SMP driver, wired by hand here as the reference: same counters on
// both devices and same cycles on both machines for the same exchange.
func TestMultiQueueSingleCoreIdentity(t *testing.T) {
	tuning := Tuning{TxKickBatch: 4}
	byHand := func(mc, ms *sim.Machine) (*VirtioNet, *VirtioNet, error) {
		a := newVirtioNet(mc, MAC{0x02, 0, 0, 0, 0, 0xA}, VhostNet)
		b := newVirtioNet(ms, MAC{0x02, 0, 0, 0, 0, 0xB}, VhostNet)
		connect(a, b)
		for _, d := range []*VirtioNet{a, b} {
			d.setTuning(tuning)
			if err := d.Configure(1, 1); err != nil {
				return nil, nil, err
			}
			if err := d.RxQueueSetup(0, QueueConfig{Ring: 4096}); err != nil {
				return nil, nil, err
			}
			if err := d.TxQueueSetup(0, QueueConfig{Ring: 4096}); err != nil {
				return nil, nil, err
			}
			if err := d.Start(); err != nil {
				return nil, nil, err
			}
		}
		return a, b, nil
	}
	type outcome struct {
		client, server             Stats
		clientCycles, serverCycles uint64
	}
	run := func(mk func(mc, ms *sim.Machine) (*VirtioNet, *VirtioNet, error)) outcome {
		mc, ms := sim.NewMachine(), sim.NewMachine()
		c, s, err := mk(mc, ms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			c.TxBurst(0, []*Netbuf{udpFrame(rssSrc, rssDst, uint16(40000+i), 5000)})
		}
		c.FlushTx()
		rx := make([]*Netbuf, 32)
		for i := range rx {
			rx[i] = NewNetbuf(0, 2048)
		}
		s.RxBurst(0, rx)
		s.TxBurst(0, rx[:15]) // 15 = 3 full kick batches + a remainder to flush
		s.FlushTx()
		return outcome{c.Stats(), s.Stats(), mc.CPU.Cycles(), ms.CPU.Cycles()}
	}
	want := run(byHand)
	got := run(func(mc, ms *sim.Machine) (*VirtioNet, *VirtioNet, error) {
		return NewTunedPair(mc, ms, VhostNet, tuning)
	})
	if got != want {
		t.Fatalf("NewTunedPair differs from the hand-wired single-queue pair:\n got %+v\nwant %+v", got, want)
	}
	if want.server.Kicks != 4 || want.serverCycles == 0 {
		t.Fatalf("exchange did not exercise the coalesced kick path: %+v", want)
	}
}

// Kick coalescing is per-queue state: each queue's remainder and kick
// charges are independent, and FlushTx settles every queue.
func TestMultiQueuePerQueueKicks(t *testing.T) {
	mc := sim.NewMachine()
	cores := []*sim.Machine{sim.NewMachine(), sim.NewMachine()}
	_, server, err := NewMultiQueuePair(mc, cores, VhostNet, Tuning{TxKickBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := func(n int) []*Netbuf {
		out := make([]*Netbuf, n)
		for i := range out {
			out[i] = udpFrame(rssDst, rssSrc, 5000, uint16(40000+i))
		}
		return out
	}
	// 3 frames on each queue: under the batch of 4, no kicks yet.
	server.TxBurst(0, frames(3))
	server.TxBurst(1, frames(3))
	if got := server.Stats().Kicks; got != 0 {
		t.Fatalf("Kicks = %d before batch filled, want 0", got)
	}
	// One more on queue 0 fills ITS batch; queue 1's remainder must not
	// leak into it.
	server.TxBurst(0, frames(1))
	if got := server.Stats().Kicks; got != 1 {
		t.Fatalf("Kicks = %d after queue 0's batch filled, want 1", got)
	}
	kick0 := cores[0].CPU.Cycles()
	if kick0 == 0 {
		t.Fatal("queue 0's kick not charged to core 0")
	}
	// FlushTx settles queue 1's remainder on core 1's clock.
	before1 := cores[1].CPU.Cycles()
	server.FlushTx()
	if got := server.Stats().Kicks; got != 2 {
		t.Fatalf("Kicks = %d after FlushTx, want 2", got)
	}
	if cores[1].CPU.Cycles() == before1 {
		t.Fatal("FlushTx did not charge queue 1's core")
	}
}
