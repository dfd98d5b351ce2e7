package netstack

import (
	"errors"

	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// Per-packet processing costs (cycles), the "standard but slow" path of
// the paper's introduction. They accumulate to the few-thousand-cycle
// per-packet budget that separates the socket path (Table 4: 319K req/s
// through lwIP) from the raw uknetdev path (6.3M req/s).
const (
	costEthRx     = 45
	costEthTx     = 40
	costARP       = 120
	costIPRx      = 160 // header validation incl. checksum
	costIPTx      = 150
	costICMP      = 90
	costUDPRx     = 140
	costUDPTx     = 130
	costTCPSeg    = 420 // TCP input state machine per segment
	costTCPTx     = 380
	costSockQueue = 260 // socket buffer enqueue/dequeue + bookkeeping
	costPerByte16 = 16  // bytes copied per cycle in socket buffers

	// costSockQueueZC is the zero-copy socket handoff: the buffer
	// reference moves between app and stack (pbuf-style), so the charge
	// is pointer bookkeeping only, with no per-byte component. This is
	// the specialization lever behind the paper's Fig 12/13 deltas
	// ("zero-copy I/O", §3.1).
	costSockQueueZC = 80
)

// Errors returned by the stack and sockets.
var (
	ErrPortInUse    = errors.New("netstack: port in use")
	ErrConnRefused  = errors.New("netstack: connection refused")
	ErrConnReset    = errors.New("netstack: connection reset")
	ErrConnClosed   = errors.New("netstack: connection closed")
	ErrTimeout      = errors.New("netstack: timed out")
	ErrWouldBlock   = errors.New("netstack: operation would block")
	ErrNoRoute      = errors.New("netstack: no route / ARP unresolved")
	ErrBufferFull   = errors.New("netstack: send buffer full")
	ErrNotListening = errors.New("netstack: not a listening socket")
	ErrAlreadyBound = errors.New("netstack: already bound")
)

// Config parameterizes a Stack.
type Config struct {
	Addr IPv4Addr
	// Name labels the stack for its owner; the stack does not read it.
	Name string
	// PerDatagramSocketExtra adds cycles to every UDP socket send and
	// receive. The Table 4 experiment sets it to model lwIP's costly
	// socket layer (pbuf chain handling, mbox handoff, per-datagram
	// thread wakeup), which is what keeps the paper's "LWIP" row at
	// ~319K req/s while the raw uknetdev path reaches 6.3M.
	PerDatagramSocketExtra uint64
	// ZeroCopy switches the socket layers to zero-copy buffer handoff:
	// send/recv charge pointer bookkeeping (costSockQueueZC) instead of
	// an enqueue plus a per-byte copy. Default off — the copying path is
	// the calibrated baseline the paper's figures measure against.
	ZeroCopy bool
	// RxQueue / TxQueue bind this stack instance to one queue pair of a
	// multi-queue device: Poll drains RxQueue, the output path enqueues
	// on TxQueue. An SMP guest runs one stack shard per vCPU, each on
	// its own queue pair (and its own machine), with RSS steering each
	// flow's packets to a fixed shard. Zero values poll queue 0 — the
	// single-core layout, unchanged.
	RxQueue, TxQueue int
}

// Stats counts stack activity.
type Stats struct {
	RxFrames, TxFrames    uint64
	RxDropped             uint64
	ARPRequests, ARPReps  uint64
	TCPSegsIn, TCPSegsOut uint64
	TCPRetransmits        uint64
	UDPIn, UDPOut         uint64
	ChecksumErrors        uint64
}

// txHeadroom reserves room in pooled TX buffers for the link and
// network headers the output path prepends (Ethernet 14 + IPv4 20,
// rounded up for alignment slack).
const txHeadroom = 64

// Stack is one host's network stack bound to a uknetdev device.
type Stack struct {
	cfg     Config
	machine *sim.Machine
	dev     uknetdev.Device

	arp     map[IPv4Addr]uknetdev.MAC
	arpWait map[IPv4Addr][]*uknetdev.Netbuf // frames queued pending resolution

	udpPorts  map[uint16]*UDPConn
	tcpConns  map[FourTuple]*TCPConn
	tcpOrder  []*TCPConn // tcpConns' values sorted by cmpTuple, for the timers
	tcpListen map[uint16]*Listener

	ipID      uint16
	ephemeral uint16

	stats Stats

	// txPool recycles outgoing frame buffers; txScratch is the reusable
	// one-element burst for the per-frame transmit path.
	txPool    *uknetdev.NetbufPool
	txScratch [1]*uknetdev.Netbuf

	// rxzc receives each RX burst's borrowed buffers.
	rxzc []*uknetdev.Netbuf
}

// New creates a stack on machine m bound to dev.
func New(m *sim.Machine, dev uknetdev.Device, cfg Config) *Stack {
	s := &Stack{
		cfg:       cfg,
		machine:   m,
		dev:       dev,
		arp:       map[IPv4Addr]uknetdev.MAC{},
		arpWait:   map[IPv4Addr][]*uknetdev.Netbuf{},
		udpPorts:  map[uint16]*UDPConn{},
		tcpConns:  map[FourTuple]*TCPConn{},
		tcpListen: map[uint16]*Listener{},
		ephemeral: 32768,
		txPool:    uknetdev.NewNetbufPool(txHeadroom, 2048, 16),
		rxzc:      make([]*uknetdev.Netbuf, 64),
	}
	return s
}

// Addr returns the stack's IPv4 address.
func (s *Stack) Addr() IPv4Addr { return s.cfg.Addr }

// Stats returns stack counters.
func (s *Stack) Stats() Stats { return s.stats }

// Machine returns the simulated machine.
func (s *Stack) Machine() *sim.Machine { return s.machine }

// Device returns the bound netdev.
func (s *Stack) Device() uknetdev.Device { return s.dev }

// Poll drains the device RX queue, processes every frame, then runs TCP
// timers. It returns the number of frames processed. Event-loop
// applications call Poll and then check their sockets.
//
// The received buffers are borrowed by reference for the duration of
// input processing and recycled to their pools afterwards — no
// per-frame copy or allocation.
func (s *Stack) Poll() int {
	total := 0
	for {
		n, more, err := s.dev.RxBurstZC(s.cfg.RxQueue, s.rxzc)
		if err != nil || n == 0 {
			break
		}
		for i, nb := range s.rxzc[:n] {
			s.input(nb.Bytes())
			nb.Release()
			s.rxzc[i] = nil
		}
		total += n
		if !more {
			break
		}
	}
	s.tcpTimers()
	return total
}

// PendingRx reports frames waiting in the device RX queue without
// processing them. Pump uses it to skip quiescent stacks.
func (s *Stack) PendingRx() int { return s.dev.Pending(s.cfg.RxQueue) }

// Flush charges any coalesced TX kick the device still owes (see
// uknetdev.Tuning). Pump calls it at quiescence so batched runs do not
// under-count VM exits.
func (s *Stack) Flush() { s.dev.FlushTx() }

// input processes one received Ethernet frame.
func (s *Stack) input(frame []byte) {
	s.machine.Charge(costEthRx)
	s.stats.RxFrames++
	eth, payload, err := ParseEth(frame)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	switch eth.EtherType {
	case EtherTypeARP:
		s.inputARP(payload)
	case EtherTypeIPv4:
		s.inputIPv4(payload)
	default:
		s.stats.RxDropped++
	}
}

func (s *Stack) inputARP(b []byte) {
	s.machine.Charge(costARP)
	p, err := ParseARP(b)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	// Learn the sender mapping either way.
	s.arpLearn(p.SenderIP, p.SenderHW)
	if p.Op == ARPRequest && p.TargetIP == s.cfg.Addr {
		reply := ARPPacket{
			Op:       ARPReply,
			SenderHW: s.dev.HWAddr(), SenderIP: s.cfg.Addr,
			TargetHW: p.SenderHW, TargetIP: p.SenderIP,
		}
		s.stats.ARPReps++
		s.sendEth(p.SenderHW, EtherTypeARP, func(b []byte) int {
			PutARP(b, reply)
			return ARPLen
		})
	}
}

// SeedARP installs a static neighbor entry, like `ip neigh add ...
// nud permanent`. SMP shard stacks need it: RSS steers ARP (a non-IP
// ethertype) to queue 0, so shards on queues > 0 would never see a
// reply to their own requests. Seeding the peer's MAC into every shard
// models the real SMP design — one ARP cache shared across cores —
// without adding cross-shard state.
func (s *Stack) SeedARP(ip IPv4Addr, mac uknetdev.MAC) {
	s.arpLearn(ip, mac)
}

func (s *Stack) arpLearn(ip IPv4Addr, mac uknetdev.MAC) {
	if ip.IsZero() {
		return
	}
	s.arp[ip] = mac
	if queued, ok := s.arpWait[ip]; ok {
		delete(s.arpWait, ip)
		for _, nb := range queued {
			nb.Prepend(EthHeaderLen)
			PutEth(nb.Bytes(), EthHeader{Dst: mac, Src: s.dev.HWAddr(), EtherType: EtherTypeIPv4})
			s.transmit(nb)
		}
	}
}

func (s *Stack) inputIPv4(b []byte) {
	s.machine.Charge(costIPRx)
	h, payload, err := ParseIPv4(b)
	if err != nil {
		s.stats.ChecksumErrors++
		s.stats.RxDropped++
		return
	}
	if h.Dst != s.cfg.Addr && h.Dst != Broadcast {
		s.stats.RxDropped++
		return
	}
	switch h.Proto {
	case ProtoICMP:
		s.inputICMP(h, payload)
	case ProtoUDP:
		s.inputUDP(h, payload)
	case ProtoTCP:
		s.inputTCP(h, payload)
	default:
		s.stats.RxDropped++
	}
}

func (s *Stack) inputICMP(ip IPv4Header, b []byte) {
	s.machine.Charge(costICMP)
	m, err := ParseICMPEcho(b)
	if err != nil || m.Type != ICMPEchoRequest {
		return
	}
	reply := ICMPEcho{Type: ICMPEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
	s.sendIPv4(ip.Src, ProtoICMP, len(b), func(b []byte) int {
		return PutICMPEcho(b, reply)
	})
}

// --- output path -------------------------------------------------------

// sendEth builds and transmits a frame to dst; fill writes the payload
// into the provided buffer and returns its length. The frame is built
// in a pooled netbuf: payload first, headers prepended into headroom.
func (s *Stack) sendEth(dst uknetdev.MAC, etherType uint16, fill func([]byte) int) {
	s.machine.Charge(costEthTx)
	nb := s.txPool.Get()
	nb.Len = fill(nb.Data[nb.Off:])
	nb.Prepend(EthHeaderLen)
	PutEth(nb.Bytes(), EthHeader{Dst: dst, Src: s.dev.HWAddr(), EtherType: etherType})
	s.transmit(nb)
}

// transmit hands one built frame to the device and drops the stack's
// reference; the device (and, on the zero-copy path, the peer) keep the
// buffer alive until the frame is consumed. Unmanaged buffers (the
// oversize fallback) have no reference to drop — the device snapshots
// them.
func (s *Stack) transmit(nb *uknetdev.Netbuf) {
	s.stats.TxFrames++
	s.txScratch[0] = nb
	s.dev.TxBurst(s.cfg.TxQueue, s.txScratch[:])
	s.txScratch[0] = nil
	if nb.Pooled() {
		nb.Release()
	}
}

// sendIPv4 emits one IPv4 packet to dst; fill writes the L4 payload
// (header+data) into the buffer and returns its length.
func (s *Stack) sendIPv4(dst IPv4Addr, proto byte, payloadHint int, fill func([]byte) int) error {
	nb := s.ipBuf(payloadHint)
	nb.Len = fill(nb.Data[nb.Off:])
	s.ipSend(nb, dst, proto)
	return nil
}

// ipBuf starts one outgoing IPv4 packet: it returns the buffer whose
// payload area (Data[Off:]) the caller fills with the L4 header and
// data, sets Len, and passes to ipSend. The frame is built in a pooled
// fixed-geometry buffer (2 KiB payload capacity, which covers every TCP
// segment and in-MTU datagram); an oversize payloadHint falls back to a
// right-sized unmanaged buffer so jumbo datagrams still build a frame
// and get dropped at the device MTU check, exactly like the pre-pool
// path.
func (s *Stack) ipBuf(payloadHint int) *uknetdev.Netbuf {
	s.machine.Charge(costIPTx)
	if payloadHint+64 <= 2048 {
		return s.txPool.Get()
	}
	return uknetdev.NewNetbuf(txHeadroom, payloadHint+64)
}

// ipSend prepends the network and link headers to the L4 payload in nb
// and transmits it to dst.
func (s *Stack) ipSend(nb *uknetdev.Netbuf, dst IPv4Addr, proto byte) {
	n := nb.Len
	s.ipID++
	nb.Prepend(IPv4HeaderLen)
	PutIPv4(nb.Bytes(), IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + n),
		ID:       s.ipID,
		TTL:      64,
		Proto:    proto,
		Src:      s.cfg.Addr,
		Dst:      dst,
	})

	mac, ok := s.arp[dst]
	if !ok {
		// Queue the frame (keeping the stack's reference) and ask
		// who-has; the Ethernet header is prepended at resolution.
		s.arpWait[dst] = append(s.arpWait[dst], nb)
		s.arpRequest(dst)
		return
	}
	nb.Prepend(EthHeaderLen)
	PutEth(nb.Bytes(), EthHeader{Dst: mac, Src: s.dev.HWAddr(), EtherType: EtherTypeIPv4})
	s.machine.Charge(costEthTx)
	s.transmit(nb)
}

// chargeSockQueue charges one socket-buffer handoff of n bytes: an
// enqueue/dequeue plus the per-byte copy on the standard path, pointer
// bookkeeping only under zero-copy.
func (s *Stack) chargeSockQueue(n int) {
	if s.cfg.ZeroCopy {
		s.machine.Charge(costSockQueueZC)
		return
	}
	s.machine.Charge(costSockQueue + uint64(n)/costPerByte16)
}

func (s *Stack) arpRequest(dst IPv4Addr) {
	s.stats.ARPRequests++
	req := ARPPacket{
		Op:       ARPRequest,
		SenderHW: s.dev.HWAddr(), SenderIP: s.cfg.Addr,
		TargetIP: dst,
	}
	s.sendEth(BroadcastMAC, EtherTypeARP, func(b []byte) int {
		PutARP(b, req)
		return ARPLen
	})
}

// allocEphemeral returns an unused local port.
func (s *Stack) allocEphemeral(tcp bool) uint16 {
	for i := 0; i < 28000; i++ {
		s.ephemeral++
		if s.ephemeral < 32768 {
			s.ephemeral = 32768
		}
		p := s.ephemeral
		if tcp {
			if _, used := s.tcpListen[p]; used {
				continue
			}
			free := true
			for ft := range s.tcpConns {
				if ft.Local.Port == p {
					free = false
					break
				}
			}
			if free {
				return p
			}
		} else if _, used := s.udpPorts[p]; !used {
			return p
		}
	}
	panic("netstack: ephemeral ports exhausted")
}
