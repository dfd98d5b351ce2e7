// Package udpkv is the paper's §6.4 specialized UDP key-value store: a
// single-threaded in-memory store with two server datapaths over the
// same storage —
//
//   - the socket path (recvmsg/sendmsg equivalents through the netstack
//     socket API, the "LWIP" row of Table 4), and
//   - the specialized path coded directly against uknetdev in polling
//     mode, parsing Ethernet/IPv4/UDP inline (the "uknetdev" row that
//     matches DPDK throughput on one core).
//
// The request protocol is one datagram per op: 'G'<key> or
// 'S'<key>'\x00'<value>, the key at least one byte; responses echo
// 'V'<value> or '+' / '-'.
package udpkv

import (
	"bytes"
	"fmt"
	"slices"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// Store is the shared in-memory table. Values sit behind a pointer so
// an overwrite replaces the bytes without assigning to the map, which
// would allocate the key string again.
type Store struct {
	data map[string]*[]byte
	// Gets, Sets, Misses count operations.
	Gets, Sets, Misses uint64
}

// minValueCap is the least room a key's value gets when the key is
// first stored (the value's allocation size class, at least this), so
// that overwriting it with a value up to that size reuses the array
// instead of growing it.
const minValueCap = 64

// NewStore returns an empty store.
func NewStore() *Store { return &Store{data: map[string]*[]byte{}} }

// appendReply executes one request payload and appends the response
// payload to dst. It is the whole protocol, for both servers. req may be
// a borrowed RX frame: a SET copies key and value into memory the store
// owns, overwriting the old value in place when it has the room.
func (st *Store) appendReply(dst, req []byte) []byte {
	if len(req) < 2 {
		return append(dst, '-')
	}
	switch req[0] {
	case 'G':
		st.Gets++
		if v := st.data[string(req[1:])]; v != nil {
			return append(append(dst, 'V'), *v...)
		}
		st.Misses++
	case 'S':
		st.Sets++
		rest := req[1:]
		i := bytes.IndexByte(rest, 0)
		if i <= 0 {
			break // no NUL, or the empty key no GET could name
		}
		key, val := rest[:i], rest[i+1:]
		if v := st.data[string(key)]; v != nil {
			*v = append((*v)[:0], val...)
		} else {
			v := append(slices.Grow([]byte(nil), max(minValueCap, len(val))), val...)
			st.data[string(key)] = &v
		}
		return append(dst, '+')
	}
	return append(dst, '-')
}

// Len reports stored keys.
func (st *Store) Len() int { return len(st.data) }

// --- socket path (Table 4 "LWIP") ---------------------------------------

// SocketServer serves the store over a bound UDP socket.
type SocketServer struct {
	Store *Store
	conn  *netstack.UDPConn
	resp  []byte // reply scratch; SendTo copies it into the frame
	// Served counts request/response pairs.
	Served uint64
}

// NewSocketServer binds the server on stack:port.
func NewSocketServer(stack *netstack.Stack, port uint16, st *Store) (*SocketServer, error) {
	conn, err := stack.BindUDP(port)
	if err != nil {
		return nil, err
	}
	return &SocketServer{Store: st, conn: conn}, nil
}

// Poll serves every queued datagram (single-recv-per-syscall shape; the
// batched variant is modelled by the experiment's cost profile, since
// batching changes syscall count, not stack work).
func (s *SocketServer) Poll() {
	for {
		d, ok := s.conn.RecvFrom()
		if !ok {
			return
		}
		s.resp = s.Store.appendReply(s.resp[:0], d.Data)
		s.conn.SendTo(d.From, s.resp)
		s.Served++
	}
}

// --- specialized path (Table 4 "uknetdev") --------------------------------

// RawServer serves the store straight off a uknetdev device in polling
// mode: no socket layer, no netstack queues, no scheduler — the §6.4
// specialization ("we remove the lwip stack and scheduler altogether
// ... and code against the uknetdev API, which we use in polling
// mode").
type RawServer struct {
	Store *Store
	dev   *uknetdev.VirtioNet
	addr  netstack.IPv4Addr
	port  uint16
	// q is the device queue pair this server polls; machine is the vCPU
	// doing the work. An SMP guest runs one RawServer per core, each on
	// its own queue (see NewRawServerQueue); RSS keeps every flow on one
	// server, so the shared Store never sees a key from two cores.
	q       int
	machine *sim.Machine

	// pool recycles reply frames: a reply is built in one of its buffers,
	// lent to the peer by TxBurst and back on the free list once the peer
	// has released it. rx holds the frames borrowed from the device for
	// one burst, tx the replies to them.
	pool   *uknetdev.NetbufPool
	rx, tx []*uknetdev.Netbuf
	ipID   uint16
	// Served counts key-value request/response pairs (ARP replies are
	// not requests); Dropped counts malformed or non-matching frames.
	Served, Dropped uint64
}

// rawBurst is the frames one RxBurstZC/TxBurst pair moves; the kick is
// charged per TxBurst, so it is part of the calibration.
const rawBurst = 32

// NewRawServer attaches to a started device, polling queue 0 and
// charging the device's machine — the single-core Table 4 shape.
func NewRawServer(dev *uknetdev.VirtioNet, addr netstack.IPv4Addr, port uint16, st *Store) *RawServer {
	return NewRawServerQueue(dev, 0, dev.Machine(), addr, port, st)
}

// NewRawServerQueue attaches one polling server to queue q of a
// multi-queue device, charging request processing to m (the vCPU that
// owns the queue). All servers of one device share the Store; each has
// its own buffer pool, as pools are single-goroutine.
func NewRawServerQueue(dev *uknetdev.VirtioNet, q int, m *sim.Machine, addr netstack.IPv4Addr, port uint16, st *Store) *RawServer {
	return &RawServer{
		Store: st, dev: dev, addr: addr, port: port, q: q, machine: m,
		pool: uknetdev.NewNetbufPool(0, 2048, rawBurst),
		rx:   make([]*uknetdev.Netbuf, rawBurst),
		tx:   make([]*uknetdev.Netbuf, 0, rawBurst),
	}
}

// Poll runs one polling iteration — burst-receive, handle, burst-send.
// Received frames are borrowed from the device and released once
// handled; reply frames go to the peer by reference, and the server
// drops its own reference after the burst.
func (s *RawServer) Poll() {
	for {
		n, more, err := s.dev.RxBurstZC(s.q, s.rx)
		if err != nil || n == 0 {
			break
		}
		tx := s.tx[:0]
		for i, nb := range s.rx[:n] {
			if out := s.handleFrame(nb.Bytes()); out != nil {
				tx = append(tx, out)
			} else {
				s.Dropped++
			}
			nb.Release()
			s.rx[i] = nil
		}
		if len(tx) > 0 {
			s.dev.TxBurst(s.q, tx)
			for _, nb := range tx {
				nb.Release()
			}
		}
		if !more {
			return
		}
	}
}

// replyHeaderLen is where a reply's payload starts in its frame.
const replyHeaderLen = netstack.EthHeaderLen + netstack.IPv4HeaderLen + netstack.UDPHeaderLen

// handleFrame parses an Ethernet/IPv4/UDP request inline and builds the
// reply frame in a pooled buffer: the store appends the response behind
// the header bytes, then the headers are written in front of it. frame
// is borrowed — nothing of it is kept past the return. ARP is answered
// so a standard client stack can reach us.
func (s *RawServer) handleFrame(frame []byte) *uknetdev.Netbuf {
	s.machine.Pay(sim.CostUDPKVRaw, 1)
	eth, l3, err := netstack.ParseEth(frame)
	if err != nil {
		return nil
	}
	if eth.EtherType == netstack.EtherTypeARP {
		return s.handleARP(l3)
	}
	if eth.EtherType != netstack.EtherTypeIPv4 {
		return nil
	}
	ip, l4, err := netstack.ParseIPv4(l3)
	if err != nil || ip.Proto != netstack.ProtoUDP || ip.Dst != s.addr {
		return nil
	}
	udp, payload, err := netstack.ParseUDP(l4, ip.Src, ip.Dst)
	if err != nil || udp.DstPort != s.port {
		return nil
	}

	out := s.pool.Get()
	room := out.Data[out.Off:]
	buf := s.Store.appendReply(room[:replyHeaderLen], payload)
	if len(buf) > len(room) {
		// append left the frame for a larger array: no reply can carry it.
		out.Release()
		return nil
	}
	out.Len = len(buf)
	s.Served++
	n := len(buf) - replyHeaderLen
	netstack.PutEth(buf, netstack.EthHeader{Dst: eth.Src, Src: s.dev.HWAddr(), EtherType: netstack.EtherTypeIPv4})
	s.ipID++
	netstack.PutIPv4(buf[netstack.EthHeaderLen:], netstack.IPv4Header{
		TotalLen: uint16(netstack.IPv4HeaderLen + netstack.UDPHeaderLen + n),
		ID:       s.ipID, TTL: 64, Proto: netstack.ProtoUDP,
		Src: s.addr, Dst: ip.Src,
	})
	netstack.PutUDP(buf[netstack.EthHeaderLen+netstack.IPv4HeaderLen:],
		netstack.AddrPort{Addr: s.addr, Port: s.port},
		netstack.AddrPort{Addr: ip.Src, Port: udp.SrcPort},
		n)
	return out
}

func (s *RawServer) handleARP(b []byte) *uknetdev.Netbuf {
	p, err := netstack.ParseARP(b)
	if err != nil || p.Op != netstack.ARPRequest || p.TargetIP != s.addr {
		return nil
	}
	out := s.pool.Get()
	out.Len = netstack.EthHeaderLen + netstack.ARPLen
	buf := out.Bytes()
	netstack.PutEth(buf, netstack.EthHeader{Dst: p.SenderHW, Src: s.dev.HWAddr(), EtherType: netstack.EtherTypeARP})
	netstack.PutARP(buf[netstack.EthHeaderLen:], netstack.ARPPacket{
		Op:       netstack.ARPReply,
		SenderHW: s.dev.HWAddr(), SenderIP: s.addr,
		TargetHW: p.SenderHW, TargetIP: p.SenderIP,
	})
	return out
}

// Load is the closed-loop generator both Table 4 datapaths are measured
// with: one socket per source port, a key seeded with a SET from the
// first, then GETs of it fired round-robin over the sockets until budget
// have been sent. Only the seeded value counts as a completed request;
// any other reply is an error.
type Load struct {
	conns        []*netstack.UDPConn
	inflight     []int
	dst          netstack.AddrPort
	get, want    []byte // the GET request and 'V' + the seeded value
	sent, budget int
	seeded       bool
	err          error
}

// NewLoad binds one socket per entry of ports (0 = ephemeral, at least
// one entry) on stack and sends the seeding SET of key toward dst from
// the first.
func NewLoad(stack *netstack.Stack, dst netstack.AddrPort, ports []uint16, key string, val []byte, budget int) (*Load, error) {
	l := &Load{
		inflight: make([]int, len(ports)), dst: dst, budget: budget,
		get: append([]byte{'G'}, key...), want: append([]byte{'V'}, val...),
	}
	for _, p := range ports {
		conn, err := stack.BindUDP(p)
		if err != nil {
			return nil, fmt.Errorf("udpkv: load socket on port %d: %w", p, err)
		}
		l.conns = append(l.conns, conn)
	}
	l.inflight[0]++
	if err := l.conns[0].SendTo(dst, append(append(append([]byte{'S'}, key...), 0), val...)); err != nil {
		return nil, fmt.Errorf("udpkv: seeding SET: %w", err)
	}
	return l, nil
}

// Ready reports the key seeded.
func (l *Load) Ready() bool { return l.seeded }

// Fire tops every socket up to depth outstanding GETs, one socket after
// the other, until the budget is spent.
func (l *Load) Fire(depth int) {
	for fired := true; fired; {
		fired = false
		for i, conn := range l.conns {
			if l.sent == l.budget || l.err != nil {
				return
			}
			if l.inflight[i] < depth {
				l.err = conn.SendTo(l.dst, l.get)
				l.inflight[i]++
				l.sent++
				fired = true
			}
		}
	}
}

// Collect consumes replies and returns how many carried the seeded
// value.
func (l *Load) Collect() int {
	done := 0
	for i, conn := range l.conns {
		for d, ok := conn.RecvFrom(); ok; d, ok = conn.RecvFrom() {
			l.inflight[i]--
			switch {
			case !l.seeded && string(d.Data) == "+":
				l.seeded = true
			case l.seeded && bytes.Equal(d.Data, l.want):
				done++
			case l.err == nil:
				l.err = fmt.Errorf("udpkv: reply %q, want %q", d.Data, l.want)
			}
		}
	}
	return done
}

// Err is the first failed send or unexpected reply.
func (l *Load) Err() error { return l.err }
