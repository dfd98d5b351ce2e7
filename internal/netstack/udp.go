package netstack

// UDPDatagram is one received datagram with its source. Data is the
// caller's for ever: the stack never writes it again and an append to it
// reallocates. It is carved from its socket's current slab, so a
// datagram kept for long pins up to udpSlabSize bytes.
type UDPDatagram struct {
	From AddrPort
	Data []byte
}

// udpSlabSize is the array a socket carves its datagrams' payload copies
// from, so the copy the socket path owes its caller costs one allocation
// per 64 KB received, not one per datagram.
const udpSlabSize = 64 << 10

// udpQueueCap bounds a socket's queue of received, unread datagrams; the
// next one is a receive drop.
const udpQueueCap = 512

// UDPConn is a bound UDP endpoint.
type UDPConn struct {
	stack *Stack
	local AddrPort
	queue fifo[UDPDatagram]
	// slab is the unused tail of the current payload slab; nil until the
	// first datagram arrives.
	slab   []byte
	closed bool
	drops  uint64
}

// BindUDP binds a UDP socket to port (0 = ephemeral).
func (s *Stack) BindUDP(port uint16) (*UDPConn, error) {
	if port == 0 {
		port = s.allocEphemeral(false)
	} else if _, used := s.udpPorts[port]; used {
		return nil, ErrPortInUse
	}
	c := &UDPConn{
		stack: s,
		local: AddrPort{Addr: s.cfg.Addr, Port: port},
	}
	s.udpPorts[port] = c
	return c, nil
}

func (s *Stack) inputUDP(ip IPv4Header, b []byte) {
	s.machine.Charge(costUDPRx)
	h, payload, err := ParseUDP(b, ip.Src, ip.Dst)
	if err != nil {
		s.stats.ChecksumErrors++
		s.stats.RxDropped++
		return
	}
	c, ok := s.udpPorts[h.DstPort]
	if !ok || c.closed {
		s.stats.RxDropped++
		return
	}
	if c.queue.Len() >= udpQueueCap {
		c.drops++
		s.stats.RxDropped++
		return
	}
	s.stats.UDPIn++
	data := c.own(payload)
	s.chargeSockQueue(len(payload))
	s.machine.Charge(s.cfg.PerDatagramSocketExtra)
	c.queue.Push(UDPDatagram{
		From: AddrPort{Addr: ip.Src, Port: h.SrcPort},
		Data: data,
	})
}

// own copies a payload out of the borrowed RX frame into memory the
// receiver keeps: the next len(p) bytes of the socket's slab, capped
// there so the caller's append cannot reach the datagram behind it. A
// payload larger than a slab gets an array of its own.
func (c *UDPConn) own(p []byte) []byte {
	n := len(p)
	if n > len(c.slab) {
		if n > udpSlabSize {
			return append([]byte(nil), p...)
		}
		c.slab = make([]byte, udpSlabSize)
	}
	data := c.slab[:n:n]
	c.slab = c.slab[n:]
	copy(data, p)
	return data
}

// LocalAddr returns the bound endpoint.
func (c *UDPConn) LocalAddr() AddrPort { return c.local }

// SendTo transmits one datagram (the sendmsg path: socket layer + UDP +
// IP + Ethernet + driver).
func (c *UDPConn) SendTo(dst AddrPort, data []byte) error {
	if c.closed {
		return ErrConnClosed
	}
	s := c.stack
	s.chargeSockQueue(len(data))
	s.machine.Charge(costUDPTx + s.cfg.PerDatagramSocketExtra)
	s.stats.UDPOut++
	return s.sendIPv4(dst.Addr, ProtoUDP, UDPHeaderLen+len(data), func(b []byte) int {
		copy(b[UDPHeaderLen:], data)
		PutUDP(b, c.local, dst, len(data))
		return UDPHeaderLen + len(data)
	})
}

// RecvFrom returns the next datagram without blocking; ok reports
// whether one was available.
func (c *UDPConn) RecvFrom() (UDPDatagram, bool) {
	if c.queue.Len() == 0 {
		return UDPDatagram{}, false
	}
	head := &c.queue.Items()[0]
	d := *head
	*head = UDPDatagram{} // the queue's array must not pin the slab too
	c.queue.Drop(1)
	c.stack.chargeSockQueue(len(d.Data))
	return d, true
}

// Pending reports queued datagrams.
func (c *UDPConn) Pending() int { return c.queue.Len() }

// Drops reports datagrams dropped due to a full socket queue; each is
// also one of the stack's Stats.RxDropped.
func (c *UDPConn) Drops() uint64 { return c.drops }

// Close unbinds the socket.
func (c *UDPConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	delete(c.stack.udpPorts, c.local.Port)
}
