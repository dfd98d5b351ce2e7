package netstack

import (
	"bytes"
	"runtime"
	"runtime/debug"
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
		t.Fatalf("handshake incomplete: client %s, accepted %v", client.state.String(), ok)
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
// segments' payloads, in order; a span list, when there is one,
// accounts for every queued byte, owned and lent; and the cursor sits
// sndSent bytes in.
func checkSendQueue(t testing.TB, c *TCPConn) {
	t.Helper()
	sum := 0
	for _, sg := range c.retransQ.Items() {
		sum += int(sg.n)
	}
	if sum != c.sndSent || c.sndSent > c.queued() {
		t.Fatalf("send queue out of step: segments cover %d bytes, sndSent %d, queued %d", sum, c.sndSent, c.queued())
	}
	if c.sndSpans.Len() == 0 {
		if c.sndLent != 0 || c.sndFront != 0 || c.sndCur != (sndPos{owned: c.sndSent}) {
			t.Fatalf("queue without spans: %d lent bytes, front %d, cursor %+v, sndSent %d", c.sndLent, c.sndFront, c.sndCur, c.sndSent)
		}
		return
	}
	spans := c.sndSpans.Items()
	pos, owned, lent := 0, 0, 0 // bytes, owned bytes and lent bytes before span i
	cur := sndPos{span: len(spans)}
	for i, sp := range spans {
		start := 0
		if i == 0 {
			start = c.sndFront
		}
		if sp.n <= start || (sp.lent != nil && len(sp.lent) != sp.n) {
			t.Fatalf("span %d of %d: %d bytes, %d acknowledged, lent %d", i, len(spans), sp.n, start, len(sp.lent))
		}
		live := sp.n - start
		if cur.span == len(spans) && c.sndSent < pos+live {
			cur = sndPos{span: i, off: start + c.sndSent - pos, owned: owned}
			if sp.lent == nil {
				cur.owned += c.sndSent - pos
			}
		}
		pos += live
		if sp.lent != nil {
			lent += live
		} else {
			owned += live
		}
	}
	if cur.span == len(spans) {
		cur.owned = owned
	}
	if owned != c.sndBuf.Len() || lent != c.sndLent || cur != c.sndCur {
		t.Fatalf("spans cover %d owned and %d lent bytes with the cursor at %+v; queue holds %d and %d, cursor %+v",
			owned, lent, cur, c.sndBuf.Len(), c.sndLent, c.sndCur)
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
		payload := pattern(segs*defaultMSS, uint64(segs))
		if n, err := conn.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		checkSendQueue(t, conn)
		if conn.retransQ.Len() != segs || conn.sndSent != len(payload) {
			t.Fatalf("%d segments tracked covering %d bytes, want %d covering %d", conn.retransQ.Len(), conn.sndSent, segs, len(payload))
		}

		// Deliver every frame but the third.
		dev := w.sd
		frames := make([]*uknetdev.Netbuf, 16)
		n, _, _ := dev.RxBurstZC(0, frames)
		if n != segs {
			t.Fatalf("%d frames in flight, want %d", n, segs)
		}
		for i, nb := range frames[:n] {
			if i != 2 {
				w.server.input(nb)
			}
			nb.Release()
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
		if conn.retransQ.Len() != held || conn.sndBuf.Len() != held*defaultMSS {
			t.Fatalf("after partial ACK: %d segments, %d bytes queued, want %d segments", conn.retransQ.Len(), conn.sndBuf.Len(), held)
		}
		if !bytes.Equal(conn.sndBuf.Items(), payload[(segs-held)*defaultMSS:]) {
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
func snapshotOrder(m map[fourTuple]*TCPConn) []*TCPConn {
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
		tuple := fourTuple{Local: AddrPort{s.cfg.Addr, lport}, Remote: dst}
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
		if c.err != errTimeout {
			t.Fatalf("%v: err = %v, want errTimeout", c.tuple, c.err)
		}
	}
	if len(w.client.tcpOrder) != 0 || len(w.client.tcpConns) != 0 {
		t.Fatal("timed-out connections still registered")
	}
}

// bulk moves one 64 KB write from client to server and drains it,
// polling the stacks directly (Pump allocates its bookkeeping). With
// lend set the payload goes by WriteRef instead of Write.
func bulk(tb testing.TB, w *world, conn, sconn *TCPConn, payload, buf []byte, lend bool) {
	sent, rcvd := 0, 0
	for rcvd < len(payload) {
		if sent < len(payload) {
			write := conn.Write
			if lend {
				write = conn.WriteRef
			}
			n, err := write(payload[sent:])
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
// Write (or WriteRef), trySend/sendSeg, segment on both sides,
// ackAdvance, the timers of every poll, Read — allocates nothing. A
// connection that has only ever written owned bytes has no span list.
func TestTCPSteadyStateAllocs(t *testing.T) {
	for _, lend := range []bool{false, true} {
		w := newWorld(t)
		conn, sconn := connect(t, w)
		payload := pattern(64<<10, 11)
		buf := make([]byte, 16<<10)
		for i := 0; i < 4; i++ {
			bulk(t, w, conn, sconn, payload, buf, lend) // warm up
		}
		segs := w.client.Stats().TCPSegsOut
		if n := testing.AllocsPerRun(20, func() { bulk(t, w, conn, sconn, payload, buf, lend) }); n != 0 {
			t.Fatalf("lend=%v: a warmed 64 KB transfer allocates %v times, want 0", lend, n)
		}
		if perRun := (w.client.Stats().TCPSegsOut - segs) / 21; perRun < 45 {
			t.Fatalf("lend=%v: only %d segments per transfer: the gate did not exercise the segment path", lend, perRun)
		}
		if conn.retransQ.Len() != 0 || conn.queued() != 0 {
			t.Fatalf("lend=%v: transfer left unacknowledged data behind", lend)
		}
		if lend != (cap(conn.sndSpans.buf) > 0) {
			t.Fatalf("lend=%v: span list capacity %d", lend, cap(conn.sndSpans.buf))
		}
	}
}

// slabs counts the slabs a NetbufPool grows by to go from made to
// made+news buffers: one of max(8, made/8) each time its free list
// runs dry.
func slabs(made, news int) (n int) {
	for end := made + news; made < end; n++ {
		made += max(8, made/8)
	}
	return n
}

// TestTCPFirstWindowAllocs is files-mix's first window: 30 freshly
// established connections each carry one 64 KB response, lent page by
// page as sendfile lends it, which the client reads in 16 KB reads.
// The segment queues were sized when the connections were made and
// the receive queue keeps the frames it was handed, so what the
// exchange allocates is the pool slabs its frames in flight and held
// take, and one span list per lending connection.
func TestTCPFirstWindowAllocs(t *testing.T) {
	const conns = 30
	w := newWorld(t)
	l, err := w.server.ListenTCP(80, conns)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*TCPConn, conns)
	servers := make([]*TCPConn, conns)
	for i := range clients {
		if clients[i], err = w.client.ConnectTCP(AddrPort{IP(10, 0, 0, 2), 80}); err != nil {
			t.Fatal(err)
		}
	}
	w.pump()
	for i := range servers {
		var ok bool
		if servers[i], ok = l.Accept(); !ok {
			t.Fatalf("only %d of %d connections accepted", i, conns)
		}
	}
	payload := pattern(64<<10, 13)
	buf := make([]byte, 16<<10)
	rcvd := make([]int, conns)
	cpool, spool := w.client.txPool, w.server.txPool
	cmade, smade := cpool.FreeLen(), spool.FreeLen()

	// No collection may run in the measured exchange: the first in a
	// process starts its workers, and any can allocate for itself.
	var before, after runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for _, c := range servers {
		for off := 0; off < len(payload); off += 4096 {
			if n, err := c.WriteRef(payload[off : off+4096]); n != 4096 || err != nil {
				t.Fatalf("WriteRef = %d, %v", n, err)
			}
		}
	}
	for done := 0; done < conns; {
		for w.server.Poll()+w.client.Poll() > 0 {
		}
		done = 0
		for i, c := range clients {
			for {
				n, err := c.Read(buf)
				if err != nil {
					break
				}
				if !bytes.Equal(buf[:n], payload[rcvd[i]:rcvd[i]+n]) {
					t.Fatalf("connection %d: bytes %d..%d corrupted", i, rcvd[i], rcvd[i]+n)
				}
				rcvd[i] += n
			}
			if rcvd[i] == len(payload) {
				done++
			}
		}
	}
	for w.server.Poll()+w.client.Poll() > 0 {
	}
	runtime.ReadMemStats(&after)

	allocs := int(after.Mallocs - before.Mallocs)
	grown := slabs(cmade, cpool.FreeLen()-cmade) + slabs(smade, spool.FreeLen()-smade)
	if grown == 0 {
		t.Fatal("the pools did not grow: the test no longer covers a first window")
	}
	// Mallocs counts the whole process; under -race a stray few come
	// from elsewhere now and then. A queue growing segment by segment
	// costs hundreds.
	const stray = 8
	if allocs > 2*grown+conns+stray {
		t.Errorf("the first window allocated %d times; its pools grew by %d slabs (2 allocations each) and %d connections lent", allocs, grown, conns)
	}
	for i := range clients {
		for _, c := range []*TCPConn{clients[i], servers[i]} {
			if cap(c.retransQ.buf) != 2*winSegs || cap(c.rcvQ.buf) != 2*winSegs {
				t.Fatalf("connection %d: segment queues grew to %d and %d entries past the %d they were sized at",
					i, cap(c.retransQ.buf), cap(c.rcvQ.buf), 2*winSegs)
			}
		}
	}
}
