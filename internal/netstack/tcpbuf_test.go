package netstack

import (
	"bytes"
	"sort"
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// connect opens one established connection across w.
func connect(t testing.TB, w *world) (client, server *TCPConn) {
	t.Helper()
	l, err := w.server.ListenTCP(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	client, err = w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80})
	if err != nil {
		t.Fatal(err)
	}
	w.pump()
	server, ok := l.Accept()
	if !ok || !client.Established() {
		t.Fatalf("handshake incomplete: client %s, accepted %v", client.State(), ok)
	}
	return client, server
}

func pattern(n int, seed uint64) []byte {
	p := make([]byte, n)
	rng := sim.NewRand(seed)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

// checkSendQueue asserts the buffer-ownership invariant: the in-flight
// bytes at the front of the send queue are exactly the tracked
// segments' payloads, in order.
func checkSendQueue(t testing.TB, c *TCPConn) {
	t.Helper()
	sum := 0
	for _, sg := range c.retransQ.Items() {
		sum += sg.n
	}
	if sum != c.sndSent || c.sndSent > c.sndBuf.Len() {
		t.Fatalf("send queue out of step: segments cover %d bytes, sndSent %d, queued %d", sum, c.sndSent, c.sndBuf.Len())
	}
}

func TestFifo(t *testing.T) {
	var q fifo[byte]
	q.Push([]byte("abcdef")...)
	q.Drop(2) // partial consume keeps the rest in place
	if got := string(q.Items()); got != "cdef" || q.Len() != 4 {
		t.Fatalf("after partial consume: %q len %d", got, q.Len())
	}
	q.Drop(4) // drained: back to the start of the array
	if q.Len() != 0 || q.head != 0 || cap(q.buf) == 0 {
		t.Fatalf("drained queue did not reset in place: head %d len %d cap %d", q.head, len(q.buf), cap(q.buf))
	}

	// A queue that never drains compacts instead of growing: keep 100
	// live bytes and stream 1 MB through them, 50 at a time.
	q.Push(pattern(100, 1)...)
	want := append([]byte(nil), q.Items()...)
	src := pattern(1_000_000, 2)
	for len(src) > 0 {
		q.Push(src[:50]...)
		want = append(want, src[:50]...)
		src = src[50:]
		if !bytes.Equal(q.Items()[:50], want[:50]) {
			t.Fatal("queue head corrupted by compaction")
		}
		q.Drop(50)
		want = want[50:]
	}
	if !bytes.Equal(q.Items(), want) {
		t.Fatal("queue contents corrupted")
	}
	if cap(q.buf) > 1024 {
		t.Fatalf("100 live bytes grew the array to %d", cap(q.buf))
	}
	if n := testing.AllocsPerRun(100, func() {
		q.Push(want[:50]...)
		q.Drop(50)
	}); n != 0 {
		t.Fatalf("warmed push/drop allocates %v times", n)
	}

	q.Reset()
	if q.Len() != 0 || q.buf != nil {
		t.Fatal("Reset kept the array")
	}
}

func TestTCPWriteZeroLength(t *testing.T) {
	w := newWorld(t)
	conn, _ := connect(t, w)
	segs := w.client.Stats().TCPSegsOut
	for _, data := range [][]byte{nil, {}} {
		if n, err := conn.Write(data); n != 0 || err != nil {
			t.Fatalf("Write(empty) = %d, %v; want 0, nil", n, err)
		}
	}
	if w.client.Stats().TCPSegsOut != segs {
		t.Fatal("an empty write put a segment on the wire")
	}
	// A full buffer still says so, and an empty write into it is still
	// not an error.
	big := make([]byte, sndBufCap+tcpWindow)
	if n, err := conn.Write(big); n != sndBufCap || err != nil {
		t.Fatalf("Write(big) = %d, %v", n, err)
	}
	for conn.unsent() < sndBufCap {
		conn.Write(big[:sndBufCap-conn.unsent()])
	}
	if _, err := conn.Write([]byte("x")); err != ErrBufferFull {
		t.Fatalf("Write into a full buffer = %v, want ErrBufferFull", err)
	}
	if n, err := conn.Write(nil); n != 0 || err != nil {
		t.Fatalf("Write(empty) into a full buffer = %d, %v; want 0, nil", n, err)
	}
}

// TestTCPRetransmitFromQueue loses one mid-stream segment. The
// segments before it are acknowledged and leave the front of the send
// queue; the lost one and everything after it stay queued and are
// retransmitted from there — after the RTO with two duplicate ACKs,
// by fast retransmit with four.
func TestTCPRetransmitFromQueue(t *testing.T) {
	for _, segs := range []int{5, 7} {
		w := newWorld(t)
		conn, sconn := connect(t, w)
		payload := pattern(segs*DefaultMSS, uint64(segs))
		if n, err := conn.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		checkSendQueue(t, conn)
		if conn.retransQ.Len() != segs || conn.sndSent != len(payload) {
			t.Fatalf("%d segments tracked covering %d bytes, want %d covering %d", conn.retransQ.Len(), conn.sndSent, segs, len(payload))
		}

		// Deliver every frame but the third.
		dev := w.server.Device().(*uknetdev.VirtioNet)
		frames := make([]*uknetdev.Netbuf, 16)
		for i := range frames {
			frames[i] = uknetdev.NewNetbuf(0, 2048)
		}
		n, _, _ := dev.RxBurst(0, frames)
		if n != segs {
			t.Fatalf("%d frames in flight, want %d", n, segs)
		}
		for i, nb := range frames[:n] {
			if i != 2 {
				w.server.input(nb.Bytes())
			}
		}
		w.pump()

		// Partial ACK: the two segments in front of the hole are gone
		// from the queue, the rest are held. Four duplicate ACKs also
		// fast-retransmit the lost segment off the queue head, and the
		// same pump delivers and acknowledges it.
		held, wantRetrans := segs-2, uint64(0)
		if segs-3 >= 3 {
			held, wantRetrans = segs-3, 1
		}
		checkSendQueue(t, conn)
		if conn.retransQ.Len() != held || conn.sndBuf.Len() != held*DefaultMSS {
			t.Fatalf("after partial ACK: %d segments, %d bytes queued, want %d segments", conn.retransQ.Len(), conn.sndBuf.Len(), held)
		}
		if !bytes.Equal(conn.sndBuf.Items(), payload[(segs-held)*DefaultMSS:]) {
			t.Fatal("send queue head is not the first unacknowledged byte")
		}
		if got := w.client.Stats().TCPRetransmits; got != wantRetrans {
			t.Fatalf("TCPRetransmits = %d before any timeout, want %d", got, wantRetrans)
		}

		// The receiver keeps no out-of-order data, so each later segment
		// comes back on its own timeout.
		var got []byte
		buf := make([]byte, 4096)
		for round := 0; len(got) < len(payload) && round < 2*segs; round++ {
			for {
				n, err := sconn.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					break
				}
			}
			w.cm.Charge(initialRTO + 1)
			w.pump()
			checkSendQueue(t, conn)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("delivered %d bytes, corrupted or short of %d", len(got), len(payload))
		}
		if got := w.client.Stats().TCPRetransmits; got != uint64(segs-2) {
			t.Fatalf("TCPRetransmits = %d, want %d (the lost segment and each one after it)", got, segs-2)
		}
		if conn.sndBuf.Len() != 0 || conn.retransQ.Len() != 0 || conn.sndSent != 0 {
			t.Fatalf("fully acknowledged, yet %d bytes / %d segments queued", conn.sndBuf.Len(), conn.retransQ.Len())
		}
	}
}

// snapshotOrder is the per-poll snapshot and sort that tcpOrder
// replaced, kept as the reference for its order.
func snapshotOrder(m map[FourTuple]*TCPConn) []*TCPConn {
	out := make([]*TCPConn, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].tuple, out[j].tuple
		if a.Local.Port != b.Local.Port {
			return a.Local.Port < b.Local.Port
		}
		if a.Remote.Port != b.Remote.Port {
			return a.Remote.Port < b.Remote.Port
		}
		return a.Remote.Addr.String() < b.Remote.Addr.String()
	})
	return out
}

func TestConnOrderMatchesSnapshot(t *testing.T) {
	w := newWorld(t)
	s := w.client
	check := func(when string) {
		t.Helper()
		want := snapshotOrder(s.tcpConns)
		if len(want) != len(s.tcpOrder) {
			t.Fatalf("%s: %d connections listed, %d registered", when, len(s.tcpOrder), len(want))
		}
		for i := range want {
			if s.tcpOrder[i] != want[i] {
				t.Fatalf("%s: position %d holds %v, snapshot order has %v", when, i, s.tcpOrder[i].tuple, want[i].tuple)
			}
		}
	}
	// Remote addresses whose text order differs from their numeric
	// order ("10.0.0.10" < "10.0.0.2" < "10.0.0.9"), shared and distinct
	// ports, inserted in a scrambled order.
	var conns []*TCPConn
	rng := sim.NewRand(7)
	for i := 0; i < 120; i++ {
		lport := uint16(40000 + rng.Uint64()%6)
		dst := AddrPort{IP(10, 0, 0, byte(2+rng.Uint64()%12)), uint16(80 + rng.Uint64()%3)}
		tuple := FourTuple{Local: AddrPort{s.cfg.Addr, lport}, Remote: dst}
		if _, dup := s.tcpConns[tuple]; dup {
			continue
		}
		c, err := s.ConnectTCPFrom(lport, dst)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		check("insert")
	}
	if len(conns) < 50 {
		t.Fatalf("only %d distinct tuples generated", len(conns))
	}
	// Same tuple again: the newcomer takes the slot, and the displaced
	// connection's teardown leaves it alone.
	old := conns[0]
	dup, _ := s.ConnectTCPFrom(old.tuple.Local.Port, old.tuple.Remote)
	check("displace")
	old.Close()
	if s.tcpConns[dup.tuple] != dup {
		t.Fatal("tearing down a displaced connection unregistered its successor")
	}
	check("stale teardown")
	conns[0] = dup
	for len(conns) > 0 {
		i := int(rng.Uint64() % uint64(len(conns)))
		conns[i].Close() // SYN_SENT: immediate teardown
		conns = append(conns[:i], conns[i+1:]...)
		check("teardown")
	}
	if len(s.tcpOrder) != 0 {
		t.Fatalf("%d connections left listed", len(s.tcpOrder))
	}
}

// TestTimersSurviveTeardown: a timer that tears its connection down
// removes it from the list the timer loop is walking; the connections
// after it must still get their turn in the same poll.
func TestTimersSurviveTeardown(t *testing.T) {
	w := newWorld(t)
	var conns []*TCPConn
	for i := 0; i < 4; i++ {
		c, _ := w.client.ConnectTCPFrom(uint16(40000+i), AddrPort{IP(10, 0, 0, 9), 80}) // nobody home
		conns = append(conns, c)
	}
	for i := 0; i <= maxRetries; i++ {
		w.cm.Charge(initialRTO << uint(i+1))
		w.client.Poll()
	}
	for _, c := range conns {
		if c.Err() != ErrTimeout {
			t.Fatalf("%v: err = %v, want ErrTimeout", c.tuple, c.Err())
		}
	}
	if len(w.client.tcpOrder) != 0 || len(w.client.tcpConns) != 0 {
		t.Fatal("timed-out connections still registered")
	}
}

// bulk moves one 64 KB write from client to server and drains it,
// polling the stacks directly (Pump allocates its bookkeeping).
func bulk(tb testing.TB, w *world, conn, sconn *TCPConn, payload, buf []byte) {
	sent, rcvd := 0, 0
	for rcvd < len(payload) {
		if sent < len(payload) {
			n, err := conn.Write(payload[sent:])
			if err != nil && err != ErrBufferFull {
				tb.Fatal(err)
			}
			sent += n
		}
		for w.client.Poll()+w.server.Poll() > 0 {
		}
		for {
			n, err := sconn.Read(buf)
			if err != nil {
				break
			}
			if !bytes.Equal(buf[:n], payload[rcvd:rcvd+n]) {
				tb.Fatalf("bytes %d..%d corrupted", rcvd, rcvd+n)
			}
			rcvd += n
		}
	}
}

// TestTCPSteadyStateAllocs is the gate on the byte path: once the
// queues and pools have grown to their working size, a 64 KB transfer —
// Write, trySend/sendSeg, segment on both sides, ackAdvance, the timers
// of every poll, Read — allocates nothing.
func TestTCPSteadyStateAllocs(t *testing.T) {
	w := newWorld(t)
	conn, sconn := connect(t, w)
	payload := pattern(64<<10, 11)
	buf := make([]byte, 16<<10)
	for i := 0; i < 4; i++ {
		bulk(t, w, conn, sconn, payload, buf) // warm up
	}
	segs := w.client.Stats().TCPSegsOut
	if n := testing.AllocsPerRun(20, func() { bulk(t, w, conn, sconn, payload, buf) }); n != 0 {
		t.Fatalf("a warmed 64 KB transfer allocates %v times, want 0", n)
	}
	if perRun := (w.client.Stats().TCPSegsOut - segs) / 21; perRun < 45 {
		t.Fatalf("only %d segments per transfer: the gate did not exercise the segment path", perRun)
	}
	if conn.retransQ.Len() != 0 || conn.sndBuf.Len() != 0 {
		t.Fatal("transfer left unacknowledged data behind")
	}
}
