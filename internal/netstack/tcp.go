package netstack

import (
	"cmp"
	"slices"
	"strings"
)

// TCP tuning. The stack implements: three-way handshake, in-order data
// transfer with cumulative ACKs, flow control against the peer's
// advertised window, retransmission with exponential backoff, fast
// retransmit on three duplicate ACKs, and orderly/abortive teardown.
// Out-of-order segments are not reassembled (the receiver dup-ACKs and
// the sender's retransmit recovers) — a documented simplification that
// only costs performance on lossy paths, which the paper's LAN testbed
// does not exercise.
const (
	DefaultMSS    = 1460
	tcpWindow     = 65535
	sndBufCap     = 256 << 10
	rcvBufCap     = 256 << 10
	initialRTO    = 180_000_000 // 50ms at 3.6GHz
	maxRetries    = 8
	timeWaitCycle = 3_600_000_000 // 1s virtual 2MSL (shortened for simulation)
)

// tcpState is the RFC 793 connection state.
type tcpState int

const (
	stClosed tcpState = iota
	stListen
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait1
	stFinWait2
	stCloseWait
	stLastAck
	stClosing
	stTimeWait
)

var tcpStateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "CLOSING", "TIME_WAIT",
}

func (s tcpState) String() string { return tcpStateNames[s] }

// tcpSeg is one sent-but-unacknowledged segment. Its n payload bytes
// are not copied: they stay in the connection's send queue, in
// retransQ order from the front, until ackAdvance drops the segment.
type tcpSeg struct {
	seq     uint32
	n       int
	flags   byte // SYN/FIN occupy sequence space
	sentAt  uint64
	retries int
}

func (sg *tcpSeg) seqLen() uint32 {
	n := uint32(sg.n)
	if sg.flags&TCPSyn != 0 {
		n++
	}
	if sg.flags&TCPFin != 0 {
		n++
	}
	return n
}

// TCPConn is one TCP connection endpoint.
type TCPConn struct {
	stack *Stack
	tuple FourTuple
	state tcpState

	iss, irs       uint32
	sndUna, sndNxt uint32
	sndWnd         uint32
	rcvNxt         uint32
	mss            int

	// sndBuf holds every byte from Write until it is acknowledged: the
	// first sndSent bytes are in flight (one retransQ segment each, in
	// order), the rest are waiting for window.
	sndBuf     fifo[byte]
	sndSent    int
	retransQ   fifo[tcpSeg]
	rcvBuf     fifo[byte]
	finPending bool
	finSent    bool
	peerFin    bool

	rto        uint64
	dupAcks    int
	timeWaitAt uint64
	corked     bool

	err error

	lastWnd uint16 // last advertised receive window

	parent *Listener
}

// Listener is a passive TCP socket.
type Listener struct {
	stack   *Stack
	port    uint16
	backlog int
	queue   []*TCPConn // established, awaiting Accept
	closed  bool
}

// --- socket creation ----------------------------------------------------

// ListenTCP opens a passive socket on port.
func (s *Stack) ListenTCP(port uint16, backlog int) (*Listener, error) {
	if _, used := s.tcpListen[port]; used {
		return nil, ErrPortInUse
	}
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{stack: s, port: port, backlog: backlog}
	s.tcpListen[port] = l
	return l, nil
}

// ConnectTCP starts an active open to dst and returns immediately with
// the connection in SYN_SENT; poll Established() to wait.
func (s *Stack) ConnectTCP(dst AddrPort) (*TCPConn, error) {
	return s.ConnectTCPFrom(0, dst)
}

// ConnectTCPFrom is ConnectTCP with an explicit local port (SO_REUSEPORT
// style source-port pinning); port 0 picks an ephemeral one, as
// BindUDP(0) does. Multi-queue load generators use it to shape the RSS
// hash: choosing source ports chooses which server queue — and
// therefore which vCPU — each connection lands on, the simulated
// equivalent of pktgen sweeping source ports to exercise every hardware
// queue.
func (s *Stack) ConnectTCPFrom(lport uint16, dst AddrPort) (*TCPConn, error) {
	if lport == 0 {
		lport = s.allocEphemeral(true)
	}
	c := &TCPConn{
		stack: s,
		tuple: FourTuple{
			Local:  AddrPort{Addr: s.cfg.Addr, Port: lport},
			Remote: dst,
		},
		state:  stSynSent,
		mss:    DefaultMSS,
		rto:    initialRTO,
		sndWnd: tcpWindow,
	}
	c.iss = uint32(s.machine.Rand.Uint64())
	c.sndUna, c.sndNxt = c.iss, c.iss
	s.addConn(c)
	c.sendSeg(TCPSyn, nil, true)
	return c, nil
}

// --- listener API --------------------------------------------------------

// Accept dequeues an established connection without blocking.
func (l *Listener) Accept() (*TCPConn, bool) {
	if len(l.queue) == 0 {
		return nil, false
	}
	c := l.queue[0]
	l.queue = l.queue[1:]
	return c, true
}

// PendingAccepts reports queued connections.
func (l *Listener) PendingAccepts() int { return len(l.queue) }

// Close stops listening; queued-but-unaccepted connections are reset.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.tcpListen, l.port)
	for _, c := range l.queue {
		c.abort(ErrConnClosed, true)
	}
	l.queue = nil
}

// --- input processing ----------------------------------------------------

func (s *Stack) inputTCP(ip IPv4Header, b []byte) {
	s.machine.Charge(costTCPSeg)
	h, payload, err := ParseTCP(b, ip.Src, ip.Dst)
	if err != nil {
		s.stats.ChecksumErrors++
		s.stats.RxDropped++
		return
	}
	s.stats.TCPSegsIn++
	tuple := FourTuple{
		Local:  AddrPort{Addr: ip.Dst, Port: h.DstPort},
		Remote: AddrPort{Addr: ip.Src, Port: h.SrcPort},
	}
	if c, ok := s.tcpConns[tuple]; ok {
		c.segment(h, payload)
		return
	}
	if l, ok := s.tcpListen[h.DstPort]; ok && h.Flags&TCPSyn != 0 && h.Flags&TCPAck == 0 {
		l.newConnection(tuple, h)
		return
	}
	// No socket: RST in response to anything but an RST.
	if h.Flags&TCPRst == 0 {
		s.sendRst(tuple, h)
	}
}

func (s *Stack) sendRst(tuple FourTuple, h TCPHeader) {
	seq := h.Ack
	flags := byte(TCPRst)
	ack := uint32(0)
	if h.Flags&TCPAck == 0 {
		seq = 0
		flags |= TCPAck
		ack = h.Seq + 1
	}
	s.sendTCP(tuple, TCPHeader{
		SrcPort: tuple.Local.Port, DstPort: tuple.Remote.Port,
		Seq: seq, Ack: ack, Flags: flags, Window: 0,
	}, nil)
}

// sendTCP emits one segment on tuple, touching each payload byte
// twice: the copy into the frame behind the header, then PutTCP's one
// checksum pass over header and payload together.
func (s *Stack) sendTCP(tuple FourTuple, h TCPHeader, payload []byte) {
	s.stats.TCPSegsOut++
	nb := s.ipBuf(TCPHeaderLen + 4 + len(payload))
	b := nb.Data[nb.Off:]
	hl := h.tcpHeaderLen()
	copy(b[hl:], payload)
	PutTCP(b, h, tuple.Local.Addr, tuple.Remote.Addr, len(payload))
	nb.Len = hl + len(payload)
	s.ipSend(nb, tuple.Remote.Addr, ProtoTCP)
}

// newConnection handles a SYN on a listening port.
func (l *Listener) newConnection(tuple FourTuple, h TCPHeader) {
	s := l.stack
	if len(l.queue) >= l.backlog {
		s.stats.RxDropped++
		return
	}
	c := &TCPConn{
		stack:  s,
		tuple:  tuple,
		state:  stSynRcvd,
		mss:    DefaultMSS,
		rto:    initialRTO,
		sndWnd: uint32(h.Window),
		parent: l,
	}
	if h.MSS != 0 && int(h.MSS) < c.mss {
		c.mss = int(h.MSS)
	}
	c.iss = uint32(s.machine.Rand.Uint64())
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	s.addConn(c)
	c.sendSeg(TCPSyn|TCPAck, nil, true)
}

// segment is the per-connection input state machine.
func (c *TCPConn) segment(h TCPHeader, payload []byte) {
	s := c.stack
	if h.Flags&TCPRst != 0 {
		if c.state == stSynSent && h.Flags&TCPAck != 0 && h.Ack != c.sndNxt {
			return // RST not for our SYN
		}
		c.abort(ErrConnReset, false)
		return
	}

	switch c.state {
	case stSynSent:
		if h.Flags&TCPSyn == 0 || h.Flags&TCPAck == 0 || h.Ack != c.iss+1 {
			return
		}
		c.irs = h.Seq
		c.rcvNxt = h.Seq + 1
		if h.MSS != 0 && int(h.MSS) < c.mss {
			c.mss = int(h.MSS)
		}
		c.ackAdvance(h.Ack)
		c.sndWnd = uint32(h.Window)
		c.state = stEstablished
		c.sendAck()
		c.trySend()
		return
	case stSynRcvd:
		if h.Flags&TCPAck != 0 && h.Ack == c.iss+1 {
			c.ackAdvance(h.Ack)
			c.sndWnd = uint32(h.Window)
			c.state = stEstablished
			if c.parent != nil && !c.parent.closed {
				c.parent.queue = append(c.parent.queue, c)
			}
			// Fall through to process any data on the ACK.
		} else if h.Flags&TCPSyn != 0 {
			// Retransmitted SYN: re-send SYN-ACK.
			c.retransmitHead()
			return
		} else {
			return
		}
	}

	// ESTABLISHED and later: ACK processing.
	if h.Flags&TCPAck != 0 {
		c.processAck(h)
	}

	// Data processing (in-order only).
	if len(payload) > 0 {
		switch c.state {
		case stEstablished, stFinWait1, stFinWait2:
			if h.Seq == c.rcvNxt {
				room := rcvBufCap - c.rcvBuf.Len()
				take := len(payload)
				if take > room {
					take = room
				}
				c.rcvBuf.Push(payload[:take]...)
				s.chargeSockQueue(take)
				c.rcvNxt += uint32(take)
				c.sendAck()
			} else {
				// Out of order or duplicate: dup-ACK what we expect.
				c.sendAck()
			}
		}
	}

	// FIN processing (only when all prior data was consumed in-order).
	if h.Flags&TCPFin != 0 && !c.peerFin {
		if finSeq := h.Seq + uint32(len(payload)); finSeq == c.rcvNxt {
			c.peerFin = true
			c.rcvNxt++
			c.sendAck()
			switch c.state {
			case stEstablished:
				c.state = stCloseWait
			case stFinWait1:
				// Simultaneous close; our FIN not yet acked.
				c.state = stClosing
			case stFinWait2:
				c.enterTimeWait()
			}
		}
	}
}

// processAck handles acknowledgement and window updates.
func (c *TCPConn) processAck(h TCPHeader) {
	ack := h.Ack
	if seqGT(ack, c.sndNxt) {
		c.sendAck() // acking the future: resync
		return
	}
	if seqGT(ack, c.sndUna) {
		c.ackAdvance(ack)
		c.sndWnd = uint32(h.Window)
		c.dupAcks = 0
		c.rto = initialRTO
		// State transitions driven by our FIN being acknowledged.
		if c.finSent && c.sndUna == c.sndNxt {
			switch c.state {
			case stFinWait1:
				c.state = stFinWait2
			case stClosing:
				c.enterTimeWait()
			case stLastAck:
				c.teardown(nil)
				return
			}
		}
	} else if ack == c.sndUna && c.retransQ.Len() > 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit.
			c.stack.stats.TCPRetransmits++
			c.retransmitHead()
		}
	} else {
		c.sndWnd = uint32(h.Window)
	}
	// A window update (including a pure ACK reopening a closed window)
	// must restart transmission of queued data.
	c.trySend()
}

// ackAdvance drops fully acknowledged segments, and with each the
// bytes it covered at the front of the send queue.
func (c *TCPConn) ackAdvance(ack uint32) {
	c.sndUna = ack
	for c.retransQ.Len() > 0 {
		sg := &c.retransQ.Items()[0]
		if !seqLEQ(sg.seq+sg.seqLen(), ack) {
			break
		}
		c.sndBuf.Drop(sg.n)
		c.sndSent -= sg.n
		c.retransQ.Drop(1)
	}
}

// unsent reports the queued bytes not yet handed to the wire; it is
// what counts against sndBufCap.
func (c *TCPConn) unsent() int { return c.sndBuf.Len() - c.sndSent }

// --- output --------------------------------------------------------------

// sendSeg emits a segment with the given flags and payload, tracking it
// for retransmission when track is set; a tracked payload is the next
// unsent bytes of the send queue, which stay there until acknowledged.
func (c *TCPConn) sendSeg(flags byte, payload []byte, track bool) {
	s := c.stack
	s.machine.Charge(costTCPTx)
	h := TCPHeader{
		SrcPort: c.tuple.Local.Port, DstPort: c.tuple.Remote.Port,
		Seq: c.sndNxt, Ack: c.rcvNxt,
		Flags:  flags,
		Window: clampWnd(rcvBufCap - c.rcvBuf.Len()),
	}
	if flags&TCPSyn != 0 {
		h.MSS = DefaultMSS
	}
	if flags != TCPSyn { // everything after the first SYN carries ACK
		h.Flags |= TCPAck
	}
	c.lastWnd = h.Window
	s.sendTCP(c.tuple, h, payload)
	if track {
		sg := tcpSeg{seq: c.sndNxt, n: len(payload), flags: flags & (TCPSyn | TCPFin), sentAt: s.machine.CPU.Cycles()}
		c.retransQ.Push(sg)
		c.sndSent += sg.n
		c.sndNxt += sg.seqLen()
	}
}

// sendAck emits a bare ACK.
func (c *TCPConn) sendAck() {
	c.sendSeg(TCPAck, nil, false)
}

// trySend pushes queued data (and a pending FIN) within the peer window.
func (c *TCPConn) trySend() {
	if c.state != stEstablished && c.state != stCloseWait && c.state != stFinWait1 && c.state != stClosing && c.state != stLastAck {
		return
	}
	for c.unsent() > 0 {
		if c.corked && c.unsent() < c.mss {
			// TCP_CORK: hold the partial segment until Uncork — this is
			// how a sendfile loop's page-sized writes coalesce into
			// full-MSS segments instead of one fragment per page.
			return
		}
		inflight := c.sndNxt - c.sndUna
		avail := int(c.sndWnd) - int(inflight)
		if avail <= 0 {
			return
		}
		n := min(c.unsent(), c.mss, avail)
		flags := byte(TCPAck)
		if n == c.unsent() {
			flags |= TCPPsh
		}
		c.sendSeg(flags, c.sndBuf.Items()[c.sndSent:c.sndSent+n], true)
	}
	if c.finPending && !c.finSent && c.unsent() == 0 {
		c.finSent = true
		c.sendSeg(TCPFin|TCPAck, nil, true)
	}
}

// retransmitHead re-sends the oldest unacknowledged segment.
func (c *TCPConn) retransmitHead() {
	if c.retransQ.Len() == 0 {
		return
	}
	sg := &c.retransQ.Items()[0]
	s := c.stack
	s.machine.Charge(costTCPTx)
	h := TCPHeader{
		SrcPort: c.tuple.Local.Port, DstPort: c.tuple.Remote.Port,
		Seq: sg.seq, Ack: c.rcvNxt,
		Flags:  sg.flags | TCPAck,
		Window: clampWnd(rcvBufCap - c.rcvBuf.Len()),
	}
	if sg.flags&TCPSyn != 0 {
		h.MSS = DefaultMSS
		if c.state == stSynSent {
			h.Flags &^= TCPAck // initial SYN carries no ACK
		}
	}
	// The oldest unacknowledged segment's bytes head the send queue.
	s.sendTCP(c.tuple, h, c.sndBuf.Items()[:sg.n])
	sg.sentAt = s.machine.CPU.Cycles()
	sg.retries++
}

// tcpTimers runs retransmission and TIME_WAIT timers; called from Poll.
func (s *Stack) tcpTimers() {
	now := s.machine.CPU.Cycles()
	// A timer can only tear down the connection it fired for, which
	// removes that one entry from tcpOrder under the loop.
	for i := 0; i < len(s.tcpOrder); {
		c := s.tcpOrder[i]
		c.timers(now)
		if i < len(s.tcpOrder) && s.tcpOrder[i] == c {
			i++
		}
	}
}

// timers fires c's TIME_WAIT expiry or its retransmission timeout.
func (c *TCPConn) timers(now uint64) {
	if c.state == stTimeWait {
		if now >= c.timeWaitAt {
			c.teardown(nil)
		}
		return
	}
	if c.retransQ.Len() == 0 {
		return
	}
	sg := &c.retransQ.Items()[0]
	if now-sg.sentAt < c.rto {
		return
	}
	if sg.retries >= maxRetries {
		c.abort(ErrTimeout, true)
		return
	}
	c.stack.stats.TCPRetransmits++
	c.rto *= 2
	c.retransmitHead()
}

// clampWnd bounds the advertised window to the 16-bit field (no window
// scaling option; tcpWindow is the effective cap).
func clampWnd(avail int) uint16 {
	if avail > tcpWindow {
		return tcpWindow
	}
	if avail < 0 {
		return 0
	}
	return uint16(avail)
}

// cmpTuple is the order timers visit connections in — local port,
// remote port, then the remote address as dotted-quad text — fixed so
// timer processing (and therefore virtual-time event order) is
// reproducible. The local address only separates tuples the first
// three keys leave equal.
func cmpTuple(a, b FourTuple) int {
	if c := cmp.Compare(a.Local.Port, b.Local.Port); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Remote.Port, b.Remote.Port); c != 0 {
		return c
	}
	if a.Remote.Addr != b.Remote.Addr {
		return strings.Compare(a.Remote.Addr.String(), b.Remote.Addr.String())
	}
	return slices.Compare(a.Local.Addr[:], b.Local.Addr[:])
}

func (s *Stack) findConn(t FourTuple) (int, bool) {
	return slices.BinarySearchFunc(s.tcpOrder, t, func(c *TCPConn, t FourTuple) int {
		return cmpTuple(c.tuple, t)
	})
}

// addConn registers c under its tuple, keeping tcpOrder sorted; a
// connection already on that tuple is displaced.
func (s *Stack) addConn(c *TCPConn) {
	if i, found := s.findConn(c.tuple); found {
		s.tcpOrder[i] = c
	} else {
		s.tcpOrder = slices.Insert(s.tcpOrder, i, c)
	}
	s.tcpConns[c.tuple] = c
}

// removeConn unregisters c, unless its tuple has passed to a newer
// connection.
func (s *Stack) removeConn(c *TCPConn) {
	if s.tcpConns[c.tuple] != c {
		return
	}
	delete(s.tcpConns, c.tuple)
	i, _ := s.findConn(c.tuple)
	s.tcpOrder = slices.Delete(s.tcpOrder, i, i+1)
}

// --- connection API --------------------------------------------------------

// State returns a printable state name (for tests/diagnostics).
func (c *TCPConn) State() string { return c.state.String() }

// Established reports whether the handshake completed.
func (c *TCPConn) Established() bool { return c.state == stEstablished }

// Err returns the terminal error, if any.
func (c *TCPConn) Err() error { return c.err }

// Tuple returns the connection's 4-tuple.
func (c *TCPConn) Tuple() FourTuple { return c.tuple }

// Cork delays partial-segment transmission (TCP_CORK): while corked,
// queued data goes out only in full-MSS segments. Response writers
// wrap scattered writes — a header plus sendfile'd file pages — in
// Cork/Uncork so the wire sees the same segmentation as one big write.
func (c *TCPConn) Cork() { c.corked = true }

// Uncork resumes normal transmission and flushes any held partial
// segment.
func (c *TCPConn) Uncork() {
	c.corked = false
	c.trySend()
}

// Write queues data for transmission, returning the bytes accepted
// (short writes happen at send-buffer capacity).
func (c *TCPConn) Write(data []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	switch c.state {
	case stEstablished, stCloseWait:
	default:
		return 0, ErrConnClosed
	}
	if len(data) == 0 {
		return 0, nil
	}
	room := sndBufCap - c.unsent()
	n := len(data)
	if n > room {
		n = room
	}
	if n == 0 {
		return 0, ErrBufferFull
	}
	c.stack.chargeSockQueue(n)
	c.sndBuf.Push(data[:n]...)
	c.trySend()
	return n, nil
}

// Read copies received data into buf without blocking. At EOF (peer FIN
// consumed) it returns 0, ErrConnClosed; with no data it returns
// 0, ErrWouldBlock.
func (c *TCPConn) Read(buf []byte) (int, error) {
	if c.rcvBuf.Len() == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.peerFin {
			return 0, ErrConnClosed
		}
		return 0, ErrWouldBlock
	}
	n := copy(buf, c.rcvBuf.Items())
	c.rcvBuf.Drop(n)
	c.stack.chargeSockQueue(n)
	// If we previously advertised a nearly-closed window and draining
	// reopened it, tell the peer so it can resume (window update).
	if c.state == stEstablished && c.lastWnd < tcpWindow/4 && rcvBufCap-c.rcvBuf.Len() > rcvBufCap/2 {
		c.sendAck()
	}
	return n, nil
}

// Readable reports buffered bytes available to Read.
func (c *TCPConn) Readable() int { return c.rcvBuf.Len() }

// Close starts an orderly shutdown (FIN after queued data drains).
func (c *TCPConn) Close() error {
	switch c.state {
	case stClosed, stTimeWait, stLastAck, stClosing, stFinWait1, stFinWait2:
		return nil
	case stSynSent:
		c.teardown(ErrConnClosed)
		return nil
	case stCloseWait:
		c.state = stLastAck
	case stEstablished, stSynRcvd:
		c.state = stFinWait1
	}
	c.finPending = true
	c.trySend()
	return nil
}

// abort resets the connection; sendRst emits an RST to the peer.
func (c *TCPConn) abort(err error, sendRst bool) {
	if sendRst && c.state != stClosed {
		c.stack.sendTCP(c.tuple, TCPHeader{
			SrcPort: c.tuple.Local.Port, DstPort: c.tuple.Remote.Port,
			Seq: c.sndNxt, Ack: c.rcvNxt, Flags: TCPRst | TCPAck,
		}, nil)
	}
	c.teardown(err)
}

func (c *TCPConn) enterTimeWait() {
	c.state = stTimeWait
	c.timeWaitAt = c.stack.machine.CPU.Cycles() + timeWaitCycle
}

// teardown finalizes the connection.
func (c *TCPConn) teardown(err error) {
	if c.err == nil {
		c.err = err
	}
	c.state = stClosed
	c.stack.removeConn(c)
	c.retransQ.Reset()
	c.sndBuf.Reset()
	c.sndSent = 0
}
