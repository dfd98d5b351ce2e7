package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// udpPair is a warmed client/server socket pair: ARP resolved, one
// datagram through.
func udpPair(t *testing.T) (w *world, cli, srv *UDPConn, to AddrPort) {
	w = newWorld(t)
	srv, _ = w.server.BindUDP(9000)
	cli, _ = w.client.BindUDP(0)
	to = AddrPort{IP(10, 0, 0, 2), 9000}
	cli.SendTo(to, []byte("warm"))
	w.pump()
	if d, ok := srv.RecvFrom(); !ok || string(d.Data) != "warm" {
		t.Fatalf("warm-up datagram = %q, %v", d.Data, ok)
	}
	return w, cli, srv, to
}

// TestUDPSocketSteadyStateAllocs is the datagram path's gate, the shape
// of a socket server: 32 datagrams out, received, echoed with SendTo,
// received back. The payload copy each RecvFrom owes its caller comes
// out of the socket's slab and the queue reuses its array, so a warmed
// round allocates nothing (a fresh slab every 64 KB received rounds to
// none per round here, and is all there is).
func TestUDPSocketSteadyStateAllocs(t *testing.T) {
	w, cli, srv, to := udpPair(t)
	msg := []byte("sixteen byte msg")
	round := func() {
		for i := 0; i < 32; i++ {
			cli.SendTo(to, msg)
		}
		w.server.Poll()
		for i := 0; i < 32; i++ {
			d, ok := srv.RecvFrom()
			if !ok {
				t.Fatal("datagram lost on the way in")
			}
			srv.SendTo(d.From, d.Data)
		}
		w.client.Poll()
		for i := 0; i < 32; i++ {
			if d, ok := cli.RecvFrom(); !ok || !bytes.Equal(d.Data, msg) {
				t.Fatalf("echo %d = %q, %v", i, d.Data, ok)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("a warmed round of 32 echoed datagrams allocates %v times, want 0", n)
	}
	if s := w.server.Stats(); s.RxDropped != 0 || s.UDPIn != 1+52*32 {
		t.Fatalf("server saw %d datagrams and dropped %d frames", s.UDPIn, s.RxDropped)
	}
}

// TestUDPQueueOverflow: the datagram that finds its socket's queue full
// is a receive drop like any other — in Stats.RxDropped, which is what
// reports read, and not in UDPIn — and the queue takes datagrams again
// once drained.
func TestUDPQueueOverflow(t *testing.T) {
	w, cli, srv, to := udpPair(t)
	before := w.server.Stats()
	var msg [4]byte
	for i := 0; i < 513; i++ {
		binary.BigEndian.PutUint32(msg[:], uint32(i))
		cli.SendTo(to, msg[:])
	}
	w.pump()
	after := w.server.Stats()
	if in, dropped := after.UDPIn-before.UDPIn, after.RxDropped-before.RxDropped; in != 512 || dropped != 1 {
		t.Fatalf("513 datagrams into an undrained socket: %d in, %d in RxDropped; want 512, 1", in, dropped)
	}
	if srv.queue.Len() != 512 {
		t.Fatalf("%d datagrams queued, want 512", srv.queue.Len())
	}
	for i := 0; i < 512; i++ {
		if d, ok := srv.RecvFrom(); !ok || binary.BigEndian.Uint32(d.Data) != uint32(i) {
			t.Fatalf("datagram %d = %x, %v", i, d.Data, ok)
		}
	}
	if _, ok := srv.RecvFrom(); ok {
		t.Fatal("the dropped datagram was delivered")
	}
	cli.SendTo(to, []byte("again"))
	w.pump()
	if d, ok := srv.RecvFrom(); !ok || string(d.Data) != "again" {
		t.Fatalf("after draining, the queue delivered %q, %v", d.Data, ok)
	}
	if s := w.server.Stats(); s.RxDropped-before.RxDropped != 1 {
		t.Fatalf("RxDropped moved by %d in all, want 1", s.RxDropped-before.RxDropped)
	}
}

// TestUDPDatagramIsCallerOwned: Data is carved from a slab the socket
// shares among its datagrams, and must still behave like the private
// copy it used to be — kept across any amount of further traffic, and
// an append to one never lands in the next.
func TestUDPDatagramIsCallerOwned(t *testing.T) {
	w, cli, srv, to := udpPair(t)
	const n = 2000
	payload := func(i int) []byte {
		p := pattern(1+i%97, uint64(i))
		if i == n/2 {
			p = pattern(1472, uint64(i)) // the largest the MTU carries
		}
		return p
	}
	kept := make([]UDPDatagram, 0, n)
	for i := 0; i < n; {
		for burst := 0; burst < 40 && i < n; burst++ {
			cli.SendTo(to, payload(i))
			i++
		}
		w.pump()
		for {
			d, ok := srv.RecvFrom()
			if !ok {
				break
			}
			kept = append(kept, d)
		}
	}
	if len(kept) != n {
		t.Fatalf("kept %d datagrams of %d", len(kept), n)
	}
	for i, d := range kept {
		if cap(d.Data) != len(d.Data) {
			t.Fatalf("datagram %d has %d bytes of room behind it: an append would write the next datagram", i, cap(d.Data)-len(d.Data))
		}
	}
	// Appending to every datagram, then another slab's worth of traffic
	// that is read and thrown away, must leave all of them as they came.
	for i := range kept {
		_ = append(kept[i].Data, 0xEE, 0xEE, 0xEE)
	}
	for i := 0; i < 2*udpSlabSize/1024; i++ {
		cli.SendTo(to, bytes.Repeat([]byte{0xDD}, 1024))
		w.pump()
		srv.RecvFrom()
	}
	for i, d := range kept {
		if !bytes.Equal(d.Data, payload(i)) {
			t.Fatalf("datagram %d changed after it was handed out", i)
		}
	}
	// No device here delivers a payload larger than a slab; one that did
	// would get its own array and leave the slab alone.
	room := len(srv.slab)
	if big := srv.own(make([]byte, udpSlabSize+1)); len(big) != udpSlabSize+1 || len(srv.slab) != room {
		t.Fatalf("an oversize payload came back %d bytes long and took %d from the slab", len(big), room-len(srv.slab))
	}
}
