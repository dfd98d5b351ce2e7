package udpkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// refServer is what a RawServer must do, the slow way: the same wire
// parsers, then the protocol over a map of strings, every reply a fresh
// slice. It knows nothing of buffers, which is the point — the server's
// replies must equal its whatever was recycled in between.
type refServer struct {
	data map[string]string
}

// refReply is the frame the reference expects back: an ARP reply, or a
// datagram carrying payload; to whom is read off the request.
type refReply struct {
	arp     bool
	mac     uknetdev.MAC
	to      netstack.AddrPort
	payload []byte
}

// handle returns the reply frame is owed, nil for a frame to drop.
func (r *refServer) handle(frame []byte) *refReply {
	eth, l3, err := netstack.ParseEth(frame)
	if err != nil {
		return nil
	}
	switch eth.EtherType {
	case netstack.EtherTypeARP:
		p, err := netstack.ParseARP(l3)
		if err != nil || p.Op != netstack.ARPRequest || p.TargetIP != serverAddr.Addr {
			return nil
		}
		return &refReply{arp: true, mac: p.SenderHW, to: netstack.AddrPort{Addr: p.SenderIP}}
	case netstack.EtherTypeIPv4:
		ip, l4, err := netstack.ParseIPv4(l3)
		if err != nil || ip.Proto != netstack.ProtoUDP || ip.Dst != serverAddr.Addr {
			return nil
		}
		udp, payload, err := netstack.ParseUDP(l4, ip.Src, ip.Dst)
		if err != nil || udp.DstPort != serverAddr.Port {
			return nil
		}
		return &refReply{mac: eth.Src, to: netstack.AddrPort{Addr: ip.Src, Port: udp.SrcPort}, payload: r.protocol(payload)}
	}
	return nil
}

func (r *refServer) protocol(req []byte) []byte {
	if len(req) >= 2 && req[0] == 'G' {
		if v, ok := r.data[string(req[1:])]; ok {
			return []byte("V" + v)
		}
	}
	if len(req) >= 2 && req[0] == 'S' {
		if key, val, ok := bytes.Cut(req[1:], []byte{0}); ok && len(key) > 0 {
			r.data[string(key)] = string(val)
			return []byte("+")
		}
	}
	return []byte("-")
}

// fixChecksums repairs the IPv4 header checksum of a mutated frame and
// marks its UDP checksum absent, where the headers are long enough to
// have them, so that mutations get behind the checksum checks and into
// the length handling and the protocol.
func fixChecksums(frame []byte) {
	if len(frame) < netstack.EthHeaderLen+netstack.IPv4HeaderLen ||
		binary.BigEndian.Uint16(frame[12:14]) != netstack.EtherTypeIPv4 {
		return
	}
	ip := frame[netstack.EthHeaderLen:]
	ihl, total := int(ip[0]&0xf)*4, int(binary.BigEndian.Uint16(ip[2:4]))
	if ihl < netstack.IPv4HeaderLen || ihl > len(ip) || total < ihl || total > len(ip) {
		return
	}
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], netstack.Checksum(ip[:ihl], 0))
	if l4 := ip[ihl:total]; ip[9] == netstack.ProtoUDP && len(l4) >= netstack.UDPHeaderLen {
		l4[6], l4[7] = 0, 0
	}
}

// fuzzRig is one RawServer on a real device pair with the test as its
// peer: it puts frames on the client device's TX queue, as pooled
// buffers (handed over by reference) or unmanaged ones (snapshotted by
// the driver), and reads the server's frames off its RX ring.
type fuzzRig struct {
	t      testing.TB
	cd, sd *uknetdev.VirtioNet
	srv    *RawServer
	ref    refServer
	pool   *uknetdev.NetbufPool
	// lent are the pooled request buffers of the current round, want the
	// reference's reply to each frame of the round, in order.
	lent      []*uknetdev.Netbuf
	want      []*refReply
	delivered uint64
	arpSeen   uint64
}

func newFuzzRig(t testing.TB) *fuzzRig {
	cd, sd, err := uknetdev.NewPair(sim.NewMachine(), sim.NewMachine(), uknetdev.VhostUser)
	if err != nil {
		t.Fatal(err)
	}
	return &fuzzRig{
		t: t, cd: cd, sd: sd,
		srv:  NewRawServer(sd, closedloop.ServerIP, testPort, NewStore()),
		ref:  refServer{data: map[string]string{}},
		pool: uknetdev.NewNetbufPool(0, 2048, 0),
	}
}

func (f *fuzzRig) request(payload []byte) []byte {
	return udpFrame(f.cd.HWAddr(), f.sd.HWAddr(), clientAddr, serverAddr, payload)
}

// send queues one frame for the server and asks the reference what must
// come back.
func (f *fuzzRig) send(frame []byte, pooled bool) {
	nb := &uknetdev.Netbuf{Data: frame, Len: len(frame)}
	if pooled {
		nb = f.pool.Get()
		nb.Len = copy(nb.Data, frame)
		f.lent = append(f.lent, nb)
	}
	if n, _, err := f.cd.TxBurst(0, []*uknetdev.Netbuf{nb}); n != 1 || err != nil {
		f.t.Fatalf("TxBurst = %d, %v", n, err)
	}
	f.delivered++
	f.want = append(f.want, f.ref.handle(frame))
}

// poll runs the server over the round's frames and holds what it did
// against the reference. The pooled request buffers are then overwritten
// and released, as their next trip through the pool would: whatever the
// server kept of them shows in a later reply.
func (f *fuzzRig) poll() {
	t := f.t
	served := f.srv.Served
	f.srv.Poll()
	for _, nb := range f.lent {
		if nb.Refs() != 1 {
			t.Fatalf("%d references on a request buffer after Poll, want the test's own", nb.Refs())
		}
		for i := range nb.Data {
			nb.Data[i] = 0xAA
		}
		nb.Release()
	}
	f.lent = f.lent[:0]

	out := emitted(f.cd)
	wantServed := 0
	for _, w := range f.want {
		if w == nil {
			continue
		}
		if len(out) == 0 {
			t.Fatalf("the server owes a reply to %v (ARP: %v) and sent none", w.to, w.arp)
		}
		frame := out[0]
		out = out[1:]
		if w.arp {
			f.arpSeen++
			checkARPReply(t, frame, f.sd.HWAddr(), w.mac, w.to.Addr)
			continue
		}
		wantServed++
		if got := replyPayload(t, f.sd.HWAddr(), frame, w.mac, w.to); !bytes.Equal(got, w.payload) {
			t.Fatalf("reply %.60q, reference %.60q", got, w.payload)
		}
	}
	if len(out) != 0 {
		t.Fatalf("%d frames nobody is owed, the first %x", len(out), out[0])
	}
	if n := int(f.srv.Served - served); n != wantServed {
		t.Fatalf("Poll served %d requests, reference %d", n, wantServed)
	}
	f.want = f.want[:0]
}

// checkARPReply checks frame is the server's ARP reply to (mac, ip).
func checkARPReply(t testing.TB, frame []byte, srvMAC, mac uknetdev.MAC, ip netstack.IPv4Addr) {
	t.Helper()
	eth, l3, err := netstack.ParseEth(frame)
	if err != nil || eth.EtherType != netstack.EtherTypeARP || eth.Dst != mac || eth.Src != srvMAC {
		t.Fatalf("ARP reply Ethernet header %+v, %v", eth, err)
	}
	want := netstack.ARPPacket{
		Op:       netstack.ARPReply,
		SenderHW: srvMAC, SenderIP: serverAddr.Addr,
		TargetHW: mac, TargetIP: ip,
	}
	if p, err := netstack.ParseARP(l3); err != nil || p != want || len(frame) != netstack.EthHeaderLen+netstack.ARPLen {
		t.Fatalf("ARP reply %+v in %d bytes, %v; want %+v", p, len(frame), err, want)
	}
}

// finish holds the run's accounts: every delivered frame was served,
// dropped or answered as ARP, and every buffer is home.
func (f *fuzzRig) finish() {
	t := f.t
	if got := f.srv.Served + f.srv.Dropped + f.arpSeen; got != f.delivered {
		t.Fatalf("served %d + dropped %d + ARP %d = %d, delivered %d",
			f.srv.Served, f.srv.Dropped, f.arpSeen, got, f.delivered)
	}
	checkPoolWhole(t, f.srv)
	if free, made := f.pool.FreeLen(), int(f.pool.News); free != made {
		t.Fatalf("the peer's pool has %d of its %d buffers back", free, made)
	}
}

// FuzzRawServerFrame feeds arbitrary frames to a RawServer between
// well-formed SETs and GETs of a key and value cut from the same input.
// handleFrame parses bytes its peer chose and owns buffer lifetimes: a
// use after release or a double free panics in uknetdev, a kept
// reference to a request shows as 0xAA in a reply, and everything the
// server says or counts is held against refServer. The seeds are under
// testdata/fuzz: well-formed GET, SET and ARP, and one frame for each
// way a length, a checksum or the protocol can be off.
func FuzzRawServerFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, fix bool) {
		if len(frame) > 1514 {
			frame = frame[:1514] // the driver drops a longer one before the wire
		}
		if fix {
			frame = bytes.Clone(frame)
			fixChecksums(frame)
		}
		r := newFuzzRig(t)
		key := fmt.Sprintf("k%x", frame[:min(len(frame), 6)])
		val := frame[:min(len(frame), 1400)]
		get := r.request([]byte("G" + key))

		r.send(r.request(setReq(key, val)), true)
		r.send(frame, true)
		r.send(get, true)
		r.poll()
		r.send(frame, false)
		r.send(get, false)
		r.send(r.request(setReq(key, val[:len(val)/2])), true) // overwrite in place
		r.send(get, true)
		r.send(r.request(setReq(key, append(bytes.Clone(val), "grown"...))), false)
		r.send(get, true)
		r.poll()
		r.finish()
	})
}
