package netstack

import (
	"bytes"
	"slices"
	"testing"
)

// refChecksum is the byte-pair RFC 1071 loop Checksum used to be, kept
// as the reference the word-wise version is checked against.
func refChecksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// maxPseudoSum is the largest partial sum pseudoSum can return: four
// all-ones address words, the protocol byte and a 16-bit length.
const maxPseudoSum = 4*0xffff + 0xff + 0xffff

func TestChecksumMatchesReference(t *testing.T) {
	ones := bytes.Repeat([]byte{0xff}, 64<<10)
	rnd := pattern(64<<10, 5)
	for _, initial := range []uint32{0, 1, 0xffff, 0x10000, maxPseudoSum} {
		for n := 0; n <= 80; n++ {
			for _, data := range [][]byte{ones[:n], rnd[:n], rnd[1 : 1+n], make([]byte, n)} {
				if got, want := Checksum(data, initial), refChecksum(data, initial); got != want {
					t.Fatalf("Checksum(%d bytes, %#x) = %#04x, reference %#04x", n, initial, got, want)
				}
			}
		}
		for _, data := range [][]byte{ones, ones[:len(ones)-1], rnd, rnd[:len(rnd)-3]} {
			if got, want := Checksum(data, initial), refChecksum(data, initial); got != want {
				t.Fatalf("Checksum(%d bytes, %#x) = %#04x, reference %#04x", len(data), initial, got, want)
			}
		}
	}
}

// FuzzChecksum is the differential check on arbitrary bytes. The
// checked buffer is data repeated out to n bytes, so that small inputs
// (which the mutator handles quickly) reach every length from 0 to
// 64 KB — one maximal IPv4 packet; beyond it the reference's 32-bit
// accumulator can wrap — and initial spans pseudoSum's range.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte{0xff}, uint16(1), uint32(maxPseudoSum))
	f.Add([]byte{0xff}, uint16(0xffff), uint32(maxPseudoSum)) // all ones, odd length
	f.Add([]byte{0xff, 0xff}, uint16(0xfffe), uint32(0xffff))
	f.Add([]byte{0x12, 0x34, 0x56}, uint16(TCPHeaderLen+DefaultMSS+1), uint32(0x1234))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, initial uint32) {
		buf := make([]byte, n)
		for i := 0; len(data) > 0 && i < len(buf); {
			i += copy(buf[i:], data)
		}
		initial %= maxPseudoSum + 1
		if got, want := Checksum(buf, initial), refChecksum(buf, initial); got != want {
			t.Fatalf("Checksum(%d bytes, %#x) = %#04x, reference %#04x", len(buf), initial, got, want)
		}
	})
}

// fuzzWorld is the fixture FuzzStackInput fires frames at: a server
// with a TCP listener, a bound UDP port and one established connection
// that has unacknowledged data in flight towards the client, so ACKs,
// duplicate ACKs, data, FINs and RSTs all have state to act on.
type fuzzWorld struct {
	*world
	conn, sconn *TCPConn
	udp         *UDPConn
}

func newFuzzWorld(t testing.TB) *fuzzWorld {
	w := &fuzzWorld{world: newWorld(t)}
	w.conn, w.sconn = connect(t, w.world)
	var err error
	if w.udp, err = w.server.BindUDP(7); err != nil {
		t.Fatal(err)
	}
	if _, err := w.sconn.Write(pattern(3*DefaultMSS, 3)); err != nil {
		t.Fatal(err)
	}
	return w
}

// frameTo builds an Ethernet+IPv4 frame from the client to the server
// around an L4 payload written by fill.
func (w *fuzzWorld) frameTo(proto byte, fill func(b []byte) int) []byte {
	b := make([]byte, 2048)
	n := fill(b[EthHeaderLen+IPv4HeaderLen:])
	PutIPv4(b[EthHeaderLen:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + n), ID: 1, TTL: 64, Proto: proto,
		Src: w.client.cfg.Addr, Dst: w.server.cfg.Addr,
	})
	PutEth(b, EthHeader{Dst: w.server.dev.HWAddr(), Src: w.client.dev.HWAddr(), EtherType: EtherTypeIPv4})
	return b[:EthHeaderLen+IPv4HeaderLen+n]
}

func (w *fuzzWorld) tcpFrame(h TCPHeader, payload []byte) []byte {
	src, dst := w.client.cfg.Addr, w.server.cfg.Addr
	return w.frameTo(ProtoTCP, func(b []byte) int {
		hl := h.tcpHeaderLen()
		copy(b[hl:], payload)
		PutTCP(b, h, src, dst, len(payload))
		return hl + len(payload)
	})
}

// seedFrames are well-formed frames of every kind the stack parses,
// aimed at the fixture's sockets.
func (w *fuzzWorld) seedFrames() [][]byte {
	c := w.conn // the client end: its tuple and sequence numbers address sconn
	h := TCPHeader{
		SrcPort: c.tuple.Local.Port, DstPort: c.tuple.Remote.Port,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: TCPAck, Window: tcpWindow,
	}
	with := func(mod func(*TCPHeader)) TCPHeader { m := h; mod(&m); return m }
	arp := make([]byte, EthHeaderLen+ARPLen)
	PutEth(arp, EthHeader{Dst: BroadcastMAC, Src: w.client.dev.HWAddr(), EtherType: EtherTypeARP})
	PutARP(arp[EthHeaderLen:], ARPPacket{Op: ARPRequest, SenderHW: w.client.dev.HWAddr(), SenderIP: w.client.cfg.Addr, TargetIP: w.server.cfg.Addr})
	return [][]byte{
		arp,
		w.frameTo(ProtoICMP, func(b []byte) int {
			return PutICMPEcho(b, ICMPEcho{Type: ICMPEchoRequest, ID: 1, Seq: 2, Payload: []byte("ping")})
		}),
		w.frameTo(ProtoUDP, func(b []byte) int {
			copy(b[UDPHeaderLen:], "datagram")
			PutUDP(b, AddrPort{w.client.cfg.Addr, 4000}, AddrPort{w.server.cfg.Addr, 7}, 8)
			return UDPHeaderLen + 8
		}),
		w.tcpFrame(TCPHeader{SrcPort: 50000, DstPort: 80, Seq: 99, Flags: TCPSyn, Window: tcpWindow, MSS: 536}, nil),
		w.tcpFrame(TCPHeader{SrcPort: 50001, DstPort: 81, Seq: 5, Ack: 6, Flags: TCPAck}, nil), // no socket: RST
		w.tcpFrame(h, []byte("GET / HTTP/1.1\r\n\r\n")),
		w.tcpFrame(with(func(m *TCPHeader) { m.Ack += DefaultMSS }), nil),             // acknowledges one segment
		w.tcpFrame(with(func(m *TCPHeader) { m.Ack += DefaultMSS / 2 }), nil),         // into the middle of one
		w.tcpFrame(with(func(m *TCPHeader) { m.Ack += 3 * DefaultMSS }), nil),         // everything in flight
		w.tcpFrame(with(func(m *TCPHeader) { m.Ack += 3*DefaultMSS + 1 }), nil),       // the future
		w.tcpFrame(with(func(m *TCPHeader) { m.Seq += 100 }), []byte("out of order")), // duplicate ACK
		w.tcpFrame(with(func(m *TCPHeader) { m.Flags |= TCPFin }), []byte("bye")),
		w.tcpFrame(with(func(m *TCPHeader) { m.Flags = TCPRst }), nil),
		w.tcpFrame(with(func(m *TCPHeader) { m.Window = 0 }), nil),
	}
}

// fixChecksums rewrites the IPv4 and TCP/UDP/ICMP checksums of a
// mutated frame where the headers are still long enough to hold them,
// so that mutations reach the code behind the checksum checks.
func fixChecksums(frame []byte) {
	if len(frame) < EthHeaderLen+IPv4HeaderLen || be.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return
	}
	ip := frame[EthHeaderLen:]
	ihl := int(ip[0]&0xf) * 4
	total := int(be.Uint16(ip[2:4]))
	if ihl < IPv4HeaderLen || ihl > len(ip) || total < ihl || total > len(ip) {
		return
	}
	be.PutUint16(ip[10:12], 0)
	be.PutUint16(ip[10:12], Checksum(ip[:ihl], 0))
	var src, dst IPv4Addr
	copy(src[:], ip[12:16])
	copy(dst[:], ip[16:20])
	l4 := ip[ihl:total]
	switch proto := ip[9]; {
	case proto == ProtoTCP && len(l4) >= TCPHeaderLen:
		be.PutUint16(l4[16:18], 0)
		be.PutUint16(l4[16:18], Checksum(l4, pseudoSum(src, dst, ProtoTCP, len(l4))))
	case proto == ProtoUDP && len(l4) >= UDPHeaderLen:
		be.PutUint16(l4[6:8], 0) // "no checksum": ParseUDP then trusts the length field alone
	case proto == ProtoICMP && len(l4) >= ICMPHeaderLen:
		be.PutUint16(l4[2:4], 0)
		be.PutUint16(l4[2:4], Checksum(l4, 0))
	}
}

// FuzzStackInput feeds arbitrary frames to Stack.input. Nothing may
// panic or read past the frame (its capacity is clipped to its length,
// so a reslice beyond it faults), whatever the stack answers must be
// digestible by its peer, and the send-queue and connection-list
// invariants must hold afterwards. With fix set the frame's checksums
// are repaired first, which is how mutations get past the wire parsers
// and into the TCP state machine.
func FuzzStackInput(f *testing.F) {
	for _, frame := range newFuzzWorld(f).seedFrames() {
		f.Add(frame, false)
		f.Add(frame, true)
		f.Add(frame[:len(frame)-1], true) // IPv4 total length past the frame
	}
	f.Fuzz(func(t *testing.T, frame []byte, fix bool) {
		if len(frame) > 2048 {
			frame = frame[:2048] // the device never delivers more than a buffer
		}
		w := newFuzzWorld(t)
		frame = slices.Clip(bytes.Clone(frame))
		if fix {
			fixChecksums(frame)
		}
		w.server.input(frame)
		w.pump()
		w.cm.Charge(initialRTO + 1)
		w.sm.Charge(initialRTO + 1)
		w.pump()
		for _, s := range []*Stack{w.client, w.server} {
			if len(s.tcpOrder) != len(s.tcpConns) {
				t.Fatalf("%d connections listed, %d registered", len(s.tcpOrder), len(s.tcpConns))
			}
			for i, c := range s.tcpOrder {
				if s.tcpConns[c.tuple] != c || (i > 0 && cmpTuple(s.tcpOrder[i-1].tuple, c.tuple) >= 0) {
					t.Fatalf("connection list out of order or stale at %d: %v", i, c.tuple)
				}
				checkSendQueue(t, c)
			}
		}
		checkSendQueue(t, w.sconn)
		if d, ok := w.udp.RecvFrom(); ok && len(d.Data) > len(frame) {
			t.Fatalf("UDP delivered %d bytes out of a %d-byte frame", len(d.Data), len(frame))
		}
		buf := make([]byte, 4096)
		if n, _ := w.sconn.Read(buf); n > len(frame) {
			t.Fatalf("TCP delivered %d bytes out of a %d-byte frame", n, len(frame))
		}
	})
}

// TestStackInputSeeds checks that the seeds are what they claim to be:
// a seed the wire parsers reject would start the fuzzer in front of
// the checksum checks instead of behind them.
func TestStackInputSeeds(t *testing.T) {
	for i, frame := range newFuzzWorld(t).seedFrames() {
		w := newFuzzWorld(t)
		before := w.server.Stats()
		w.server.input(slices.Clip(bytes.Clone(frame)))
		after := w.server.Stats()
		if after.RxDropped != before.RxDropped || after.ChecksumErrors != before.ChecksumErrors {
			t.Errorf("seed %d is not a well-formed frame: dropped %d, checksum errors %d", i,
				after.RxDropped-before.RxDropped, after.ChecksumErrors-before.ChecksumErrors)
		}
		w.pump()
	}
}
