package netstack

import (
	"bytes"
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// world is a two-host test topology: client <-> server over a virtio
// pair. frames backs the frames a test hands a stack directly.
type world struct {
	cm, sm *sim.Machine
	cd, sd *uknetdev.VirtioNet
	client *Stack
	server *Stack
	frames *uknetdev.NetbufPool
}

func newWorld(t testing.TB) *world {
	t.Helper()
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{cm: cm, sm: sm, cd: cd, sd: sd, frames: uknetdev.NewNetbufPool(0, 2048, 0)}
	w.client = New(cm, cd, Config{Addr: IP(10, 0, 0, 1), Name: "client"})
	w.server = New(sm, sd, Config{Addr: IP(10, 0, 0, 2), Name: "server"})
	return w
}

func (w *world) pump() { Pump(w.client, w.server) }

// deliver hands frame to s as Poll hands it a received one: in a
// pool-managed buffer whose reference is dropped once input returns.
// The frame ends where its buffer's slot does, so a reslice past it
// faults.
func (w *world) deliver(s *Stack, frame []byte) {
	nb := w.frames.Get()
	nb.Off = len(nb.Data) - len(frame)
	nb.Len = copy(nb.Data[nb.Off:], frame)
	s.input(nb)
	nb.Release()
}

func TestARPResolution(t *testing.T) {
	w := newWorld(t)
	c, err := w.client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	// First send triggers ARP; the datagram is queued and flushed on
	// reply.
	if err := c.SendTo(AddrPort{IP(10, 0, 0, 2), 7}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if w.client.Stats().ARPRequests != 1 {
		t.Fatalf("ARPRequests = %d, want 1", w.client.Stats().ARPRequests)
	}
	srv, err := w.server.BindUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	w.pump()
	if _, ok := srv.RecvFrom(); !ok {
		t.Fatal("datagram lost across ARP resolution")
	}
	// Second send must not re-ARP.
	if err := c.SendTo(AddrPort{IP(10, 0, 0, 2), 7}, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if w.client.Stats().ARPRequests != 1 {
		t.Fatalf("ARPRequests = %d after warm cache, want 1", w.client.Stats().ARPRequests)
	}
}

func TestUDPEcho(t *testing.T) {
	w := newWorld(t)
	srv, _ := w.server.BindUDP(9000)
	cli, _ := w.client.BindUDP(0)
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i), 0xAA}
		if err := cli.SendTo(AddrPort{IP(10, 0, 0, 2), 9000}, msg); err != nil {
			t.Fatal(err)
		}
	}
	w.pump()
	if srv.queue.Len() != 10 {
		t.Fatalf("server pending = %d, want 10", srv.queue.Len())
	}
	for i := 0; i < 10; i++ {
		d, ok := srv.RecvFrom()
		if !ok {
			t.Fatal("missing datagram")
		}
		if d.Data[0] != byte(i) {
			t.Fatalf("datagram %d out of order: got %d", i, d.Data[0])
		}
		if err := srv.SendTo(d.From, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	w.pump()
	if cli.queue.Len() != 10 {
		t.Fatalf("client echo pending = %d, want 10", cli.queue.Len())
	}
}

func TestUDPPortDemux(t *testing.T) {
	w := newWorld(t)
	a, _ := w.server.BindUDP(1000)
	b, _ := w.server.BindUDP(2000)
	cli, _ := w.client.BindUDP(0)
	cli.SendTo(AddrPort{IP(10, 0, 0, 2), 1000}, []byte("a"))
	cli.SendTo(AddrPort{IP(10, 0, 0, 2), 2000}, []byte("b"))
	w.pump()
	if d, ok := a.RecvFrom(); !ok || string(d.Data) != "a" {
		t.Fatalf("port 1000 got %v %v", d, ok)
	}
	if d, ok := b.RecvFrom(); !ok || string(d.Data) != "b" {
		t.Fatalf("port 2000 got %v %v", d, ok)
	}
	if _, err := w.server.BindUDP(1000); err != ErrPortInUse {
		t.Fatalf("duplicate bind err = %v, want ErrPortInUse", err)
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	w := newWorld(t)
	l, err := w.server.ListenTCP(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	if err != nil {
		t.Fatal(err)
	}
	w.pump()
	if !conn.Established() {
		t.Fatalf("client state = %s, want ESTABLISHED", conn.state.String())
	}
	sconn, ok := l.Accept()
	if !ok {
		t.Fatal("no accepted connection")
	}
	if !sconn.Established() {
		t.Fatalf("server state = %s", sconn.state.String())
	}

	// Client -> server data.
	msg := []byte("GET / HTTP/1.1\r\n\r\n")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	w.pump()
	buf := make([]byte, 1024)
	n, err := sconn.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	// Server -> client reply.
	reply := []byte("HTTP/1.1 200 OK\r\n\r\nhello")
	if _, err := sconn.Write(reply); err != nil {
		t.Fatal(err)
	}
	w.pump()
	n, err = conn.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], reply) {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	w := newWorld(t)
	l, _ := w.server.ListenTCP(80, 1)
	conn, _ := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	w.pump()
	sconn, ok := l.Accept()
	if !ok {
		t.Fatal("no connection")
	}
	// Send 1MB through a 64KB window: requires flow control, segmenting
	// and window updates.
	const total = 1 << 20
	payload := make([]byte, total)
	rng := sim.NewRand(3)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	var received []byte
	sent := 0
	buf := make([]byte, 32<<10)
	for sent < total || len(received) < total {
		if sent < total {
			n, err := conn.Write(payload[sent:])
			if err != nil && err != ErrBufferFull {
				t.Fatal(err)
			}
			sent += n
		}
		w.pump()
		for {
			n, err := sconn.Read(buf)
			if n > 0 {
				received = append(received, buf[:n]...)
			}
			if err != nil || n == 0 {
				break
			}
		}
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("1MB transfer corrupted (got %d bytes)", len(received))
	}
}

func TestTCPOrderlyClose(t *testing.T) {
	w := newWorld(t)
	l, _ := w.server.ListenTCP(80, 1)
	conn, _ := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	w.pump()
	sconn, _ := l.Accept()

	conn.Write([]byte("bye"))
	conn.Close()
	w.pump()
	buf := make([]byte, 16)
	n, err := sconn.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("read before EOF = %q, %v", buf[:n], err)
	}
	if _, err := sconn.Read(buf); err != ErrConnClosed {
		t.Fatalf("read at EOF = %v, want ErrConnClosed", err)
	}
	sconn.Close()
	w.pump()
	// Client entered TIME_WAIT (active closer); server fully closed.
	if got := sconn.state.String(); got != "CLOSED" {
		t.Fatalf("server state = %s, want CLOSED", got)
	}
	if got := conn.state.String(); got != "TIME_WAIT" {
		t.Fatalf("client state = %s, want TIME_WAIT", got)
	}
	// 2MSL expiry reclaims the connection.
	w.cm.Charge(timeWaitCycle + 1)
	w.client.Poll()
	if got := conn.state.String(); got != "CLOSED" {
		t.Fatalf("client state after 2MSL = %s, want CLOSED", got)
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	w := newWorld(t)
	conn, _ := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 81}) // nobody listening
	w.pump()
	if conn.err != errConnReset {
		t.Fatalf("err = %v, want errConnReset (RST)", conn.err)
	}
}

// TestTCPRetransmission injects packet loss by dropping the server's RX
// ring contents, then advances virtual time past the RTO.
func TestTCPRetransmission(t *testing.T) {
	w := newWorld(t)
	l, _ := w.server.ListenTCP(80, 1)
	conn, _ := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	w.pump()
	sconn, _ := l.Accept()

	if _, err := conn.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	// Drop the data segment before the server sees it.
	dev := w.sd
	drop := make([]*uknetdev.Netbuf, 8)
	for i := range drop {
		drop[i] = uknetdev.NewNetbuf(0, 2048)
	}
	for {
		n, _, _ := dev.RxBurst(0, drop)
		if n == 0 {
			break
		}
	}
	w.pump()
	buf := make([]byte, 16)
	if _, err := sconn.Read(buf); err != ErrWouldBlock {
		t.Fatalf("segment not dropped: %v", err)
	}

	// Advance past RTO; client retransmits.
	w.cm.Charge(initialRTO + 1)
	w.pump()
	if w.client.Stats().TCPRetransmits == 0 {
		t.Fatal("no retransmission recorded")
	}
	n, err := sconn.Read(buf)
	if err != nil || string(buf[:n]) != "lost" {
		t.Fatalf("after retransmit read %q, %v", buf[:n], err)
	}
}

// TestTCPRetransmissionGivesUp: a peer that vanishes entirely leads to
// errTimeout after max retries with exponential backoff.
func TestTCPRetransmissionGivesUp(t *testing.T) {
	w := newWorld(t)
	l, _ := w.server.ListenTCP(80, 1)
	conn, _ := w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	w.pump()
	_, _ = l.Accept()
	conn.Write([]byte("into the void"))

	dev := w.sd
	drop := make([]*uknetdev.Netbuf, 8)
	for i := range drop {
		drop[i] = uknetdev.NewNetbuf(0, 2048)
	}
	for i := 0; i <= maxRetries+2; i++ {
		// Black-hole everything the server would receive.
		for {
			n, _, _ := dev.RxBurst(0, drop[:])
			if n == 0 {
				break
			}
		}
		w.cm.Charge(initialRTO << uint(i+1))
		w.client.Poll()
	}
	if conn.err != errTimeout {
		t.Fatalf("err = %v, want errTimeout", conn.err)
	}
	if conn.state.String() != "CLOSED" {
		t.Fatalf("state = %s, want CLOSED", conn.state.String())
	}
}

func TestICMPEcho(t *testing.T) {
	w := newWorld(t)
	// Hand-craft an echo request from the client.
	payload := []byte("ping payload")
	w.client.sendIPv4(IP(10, 0, 0, 2), ProtoICMP, icmpHeaderLen+len(payload), func(b []byte) int {
		return putICMPEcho(b, icmpEcho{Type: icmpEchoRequest, ID: 7, Seq: 3, Payload: payload})
	})
	gotReply := false
	w.pump()
	// Intercept at the client by checking device stats: reply delivered
	// means client RxFrames counted an ICMP packet.
	if w.client.Stats().RxFrames > 0 {
		gotReply = true
	}
	if !gotReply {
		t.Fatal("no ICMP echo reply received")
	}
}

func TestSocketPathCharges(t *testing.T) {
	// The socket path must charge substantially more than the raw
	// uknetdev path: that gap is the entire Table 4 story.
	w := newWorld(t)
	srv, _ := w.server.BindUDP(9000)
	cli, _ := w.client.BindUDP(0)
	cli.SendTo(AddrPort{IP(10, 0, 0, 2), 9000}, []byte("warm"))
	w.pump()
	srv.RecvFrom()

	before := w.sm.CPU.Cycles()
	cli.SendTo(AddrPort{IP(10, 0, 0, 2), 9000}, []byte("0123456789abcdef"))
	w.pump()
	srv.RecvFrom()
	rxCost := w.sm.CPU.Cycles() - before
	if rxCost < 500 {
		t.Errorf("server-side socket RX path = %d cycles; implausibly cheap", rxCost)
	}
}
