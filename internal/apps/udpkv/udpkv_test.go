package udpkv

import (
	"bytes"
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

const testPort = 5000

// rig is a closed-loop world whose server cores run udpkv servers over
// one Store, with a client socket aimed at them.
type rig struct {
	w      *closedloop.World
	store  *Store
	conn   *netstack.UDPConn
	cd, sd *uknetdev.VirtioNet
	// serve is one polling iteration of the server side.
	serve func()
}

func newRig(t testing.TB, cores int) *rig {
	t.Helper()
	w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: cores, Alloc: "tlsf"})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{w: w, store: NewStore()}
	r.cd = w.Client.Device().(*uknetdev.VirtioNet)
	r.sd = w.Shards[0].Device().(*uknetdev.VirtioNet)
	if r.conn, err = w.Client.BindUDP(0); err != nil {
		t.Fatal(err)
	}
	return r
}

// newSocketRig serves through the shard's netstack and a bound socket.
func newSocketRig(t testing.TB) (*rig, *SocketServer) {
	r := newRig(t, 1)
	srv, err := NewSocketServer(r.w.Shards[0], testPort, r.store)
	if err != nil {
		t.Fatal(err)
	}
	stack := r.w.Shards[0]
	r.serve = func() { stack.Poll(); srv.Poll(); stack.Poll() }
	return r, srv
}

// newRawRig serves straight off the device; the shard's netstack is
// never polled.
func newRawRig(t testing.TB) (*rig, *RawServer) {
	r := newRig(t, 1)
	srv := NewRawServer(r.sd, closedloop.ServerIP, testPort, r.store)
	r.serve = func() { srv.Poll() }
	return r, srv
}

func (r *rig) round() {
	r.w.Client.Poll()
	r.serve()
	r.w.Client.Poll()
}

// exchange sends one request and returns its reply; the first one of a
// world also needs the ARP round trip.
func (r *rig) exchange(t testing.TB, req []byte) []byte {
	t.Helper()
	if err := r.conn.SendTo(closedloop.ServerAddr(testPort), req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.round()
		if d, ok := r.conn.RecvFrom(); ok {
			return d.Data
		}
	}
	t.Fatalf("no reply to %q", req)
	return nil
}

// getRound is the steady-state unit of the allocation tests and the
// benchmarks: a burst of GETs out, one pass of every poller, the burst
// of replies in.
func (r *rig) getRound(t testing.TB, req, want []byte) {
	for i := 0; i < rawBurst; i++ {
		r.conn.SendTo(closedloop.ServerAddr(testPort), req)
	}
	r.round()
	for i := 0; i < rawBurst; i++ {
		if d, ok := r.conn.RecvFrom(); !ok || !bytes.Equal(d.Data, want) {
			t.Fatalf("reply %d of the burst = %q, %v; want %q", i, d.Data, ok, want)
		}
	}
}

// warmGETs stores one key and runs a first burst, so pools, queues and
// slabs exist; it returns the GET and the reply every later getRound
// exchanges.
func (r *rig) warmGETs(t testing.TB) (req, want []byte) {
	t.Helper()
	if got := r.exchange(t, setReq("k", []byte("a value of some 32 bytes or so.."))); string(got) != "+" {
		t.Fatalf("SET = %q", got)
	}
	req, want = []byte("Gk"), []byte("Va value of some 32 bytes or so..")
	r.getRound(t, req, want)
	return req, want
}

// checkPoolWhole: every buffer the server's pool ever made is back on
// its free list, so none leaked and none is still lent out.
func checkPoolWhole(t testing.TB, srv *RawServer) {
	t.Helper()
	if free, made := srv.pool.FreeLen(), rawBurst+int(srv.pool.News); free != made {
		t.Fatalf("the server's pool has %d of its %d buffers back", free, made)
	}
}

func setReq(key string, val []byte) []byte {
	return append(append([]byte("S"+key), 0), val...)
}

// maxValue fills a SET for a three-byte key out to the largest datagram
// the MTU carries.
var maxValue = bytes.Repeat([]byte("m"), 1500-netstack.IPv4HeaderLen-netstack.UDPHeaderLen-len("Sbig\x00"))

// protocolTable is one session covering every branch of the protocol;
// the steps build on each other.
var protocolTable = []struct {
	name      string
	req, want []byte
}{
	{"get miss", []byte("Gk"), []byte("-")},
	{"set new", setReq("k", []byte("0123456789")), []byte("+")},
	{"get hit", []byte("Gk"), []byte("V0123456789")},
	{"set overwrite shorter", setReq("k", []byte("abc")), []byte("+")},
	{"get shorter", []byte("Gk"), []byte("Vabc")},
	{"set overwrite longer", setReq("k", bytes.Repeat([]byte("xy"), 40)), []byte("+")},
	{"get longer", []byte("Gk"), append([]byte("V"), bytes.Repeat([]byte("xy"), 40)...)},
	{"set empty value", setReq("e", nil), []byte("+")},
	{"get empty value", []byte("Ge"), []byte("V")},
	{"one byte", []byte("G"), []byte("-")},
	{"unknown verb", []byte("Xk"), []byte("-")},
	{"set without NUL", []byte("Sk=v"), []byte("-")},
	{"set empty key", []byte("S\x00v"), []byte("-")},
	{"set at the MTU limit", setReq("big", maxValue), []byte("+")},
	{"get at the MTU limit", []byte("Gbig"), append([]byte("V"), maxValue...)},
}

// TestProtocolSocketVsRaw runs the session through both servers: the
// replies are the table's, and the two stores count the same.
func TestProtocolSocketVsRaw(t *testing.T) {
	sock, sockSrv := newSocketRig(t)
	raw, rawSrv := newRawRig(t)
	for _, tc := range protocolTable {
		for _, r := range []*rig{sock, raw} {
			if got := r.exchange(t, tc.req); !bytes.Equal(got, tc.want) {
				t.Errorf("%s: reply %.40q, want %.40q (raw server: %v)", tc.name, got, tc.want, r == raw)
			}
		}
	}
	a, b := sock.store, raw.store
	if a.Gets != b.Gets || a.Sets != b.Sets || a.Misses != b.Misses || a.Len() != b.Len() {
		t.Errorf("stores diverge: socket %d gets %d sets %d misses %d keys, raw %d/%d/%d/%d",
			a.Gets, a.Sets, a.Misses, a.Len(), b.Gets, b.Sets, b.Misses, b.Len())
	}
	if a.Gets != 6 || a.Sets != 7 || a.Misses != 1 || a.Len() != 3 {
		t.Errorf("socket store counts %d gets %d sets %d misses %d keys, want 6/7/1/3", a.Gets, a.Sets, a.Misses, a.Len())
	}
	if n := uint64(len(protocolTable)); sockSrv.Served != n || rawSrv.Served != n || rawSrv.Dropped != 0 {
		t.Errorf("served %d (socket) and %d (raw, %d dropped), want %d and none dropped",
			sockSrv.Served, rawSrv.Served, rawSrv.Dropped, n)
	}
}

// --- frames written by hand, for what no client stack would send --------

var (
	clientAddr = netstack.AddrPort{Addr: closedloop.ClientIP, Port: 4000}
	serverAddr = closedloop.ServerAddr(testPort)
)

// udpFrame builds the Ethernet/IPv4/UDP frame carrying payload from src
// to dst.
func udpFrame(srcMAC, dstMAC uknetdev.MAC, src, dst netstack.AddrPort, payload []byte) []byte {
	b := make([]byte, replyHeaderLen+len(payload))
	copy(b[replyHeaderLen:], payload)
	netstack.PutUDP(b[netstack.EthHeaderLen+netstack.IPv4HeaderLen:], src, dst, len(payload))
	netstack.PutIPv4(b[netstack.EthHeaderLen:], netstack.IPv4Header{
		TotalLen: uint16(len(b) - netstack.EthHeaderLen), ID: 1, TTL: 64, Proto: netstack.ProtoUDP,
		Src: src.Addr, Dst: dst.Addr,
	})
	netstack.PutEth(b, netstack.EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: netstack.EtherTypeIPv4})
	return b
}

func arpFrame(srcMAC uknetdev.MAC, sender, target netstack.IPv4Addr) []byte {
	b := make([]byte, netstack.EthHeaderLen+netstack.ARPLen)
	netstack.PutEth(b, netstack.EthHeader{Dst: netstack.BroadcastMAC, Src: srcMAC, EtherType: netstack.EtherTypeARP})
	netstack.PutARP(b[netstack.EthHeaderLen:], netstack.ARPPacket{
		Op: netstack.ARPRequest, SenderHW: srcMAC, SenderIP: sender, TargetIP: target,
	})
	return b
}

// request is a well-formed frame from the rig's client to its server.
func (r *rig) request(payload []byte) []byte {
	return udpFrame(r.cd.HWAddr(), r.sd.HWAddr(), clientAddr, serverAddr, payload)
}

// inject puts one frame on the wire as an unmanaged buffer, which the
// driver snapshots.
func inject(t testing.TB, dev *uknetdev.VirtioNet, frame []byte) {
	t.Helper()
	if n, _, err := dev.TxBurst(0, []*uknetdev.Netbuf{{Data: frame, Len: len(frame)}}); n != 1 || err != nil {
		t.Fatalf("TxBurst = %d, %v", n, err)
	}
}

// emitted takes every frame the server sent off the client device's
// ring (the client stack is not polled in these tests) as copies.
func emitted(dev *uknetdev.VirtioNet) [][]byte {
	var out [][]byte
	rx := make([]*uknetdev.Netbuf, 8)
	for {
		n, _, _ := dev.RxBurstZC(0, rx)
		if n == 0 {
			return out
		}
		for _, nb := range rx[:n] {
			out = append(out, bytes.Clone(nb.Bytes()))
			nb.Release()
		}
	}
}

// replyPayload checks that frame is a well-formed reply from the server
// at srvMAC to a request from (mac, to) — both checksums present and
// right, every address the mirror of the request's — and returns its
// payload.
func replyPayload(t testing.TB, srvMAC uknetdev.MAC, frame []byte, mac uknetdev.MAC, to netstack.AddrPort) []byte {
	t.Helper()
	eth, l3, err := netstack.ParseEth(frame)
	if err != nil || eth.EtherType != netstack.EtherTypeIPv4 || eth.Dst != mac || eth.Src != srvMAC {
		t.Fatalf("reply Ethernet header %+v, %v", eth, err)
	}
	ip, l4, err := netstack.ParseIPv4(l3)
	if err != nil || ip.Proto != netstack.ProtoUDP || ip.Src != serverAddr.Addr || ip.Dst != to.Addr ||
		int(ip.TotalLen) != len(l3) {
		t.Fatalf("reply IPv4 header %+v over %d bytes, %v", ip, len(l3), err)
	}
	udp, payload, err := netstack.ParseUDP(l4, ip.Src, ip.Dst)
	if err != nil || udp.SrcPort != serverAddr.Port || udp.DstPort != to.Port || int(udp.Length) != len(l4) {
		t.Fatalf("reply UDP header %+v over %d bytes, %v", udp, len(l4), err)
	}
	if l4[6] == 0 && l4[7] == 0 {
		t.Fatal("reply carries no UDP checksum")
	}
	return payload
}

func TestRawServerARP(t *testing.T) {
	r, srv := newRawRig(t)
	inject(t, r.cd, arpFrame(r.cd.HWAddr(), clientAddr.Addr, serverAddr.Addr))
	inject(t, r.cd, arpFrame(r.cd.HWAddr(), clientAddr.Addr, netstack.IP(10, 0, 0, 3)))
	srv.Poll()
	if srv.Served != 0 || srv.Dropped != 1 {
		t.Errorf("served %d dropped %d, want 0 (ARP replies are not requests served) and 1 (the request for another address)", srv.Served, srv.Dropped)
	}
	out := emitted(r.cd)
	if len(out) != 1 {
		t.Fatalf("%d frames emitted, want the one ARP reply", len(out))
	}
	checkARPReply(t, out[0], r.sd.HWAddr(), r.cd.HWAddr(), clientAddr.Addr)
}

func TestRawServerDropsWhatIsNotItsOwn(t *testing.T) {
	r, srv := newRawRig(t)
	get := []byte("Gk")
	good := r.request(get)
	flip := func(at int) []byte {
		b := bytes.Clone(good)
		b[at] ^= 0x10
		return b
	}
	otherProto := bytes.Clone(good)
	netstack.PutIPv4(otherProto[netstack.EthHeaderLen:], netstack.IPv4Header{
		TotalLen: uint16(len(good) - netstack.EthHeaderLen), ID: 1, TTL: 64, Proto: netstack.ProtoICMP,
		Src: clientAddr.Addr, Dst: serverAddr.Addr,
	})
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"wrong port", udpFrame(r.cd.HWAddr(), r.sd.HWAddr(), clientAddr, closedloop.ServerAddr(testPort+1), get)},
		{"wrong destination IP", udpFrame(r.cd.HWAddr(), r.sd.HWAddr(), clientAddr,
			netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 3), Port: testPort}, get)},
		{"not UDP", otherProto},
		{"truncated in the UDP header", good[:netstack.EthHeaderLen+netstack.IPv4HeaderLen+4]},
		{"truncated in the Ethernet header", good[:6]},
		{"IPv4 header bit flipped", flip(netstack.EthHeaderLen + 8)},
		{"payload bit flipped under the UDP checksum", flip(len(good) - 1)},
		{"neither ARP nor IPv4", append(bytes.Clone(good[:12]), 0x86, 0xdd, 0, 0)},
	} {
		before := srv.Dropped
		inject(t, r.cd, tc.frame)
		if srv.Poll(); srv.Dropped != before+1 || srv.Served != 0 {
			t.Errorf("%s: dropped %d -> %d, served %d; want one drop and nothing served",
				tc.name, before, srv.Dropped, srv.Served)
		}
		if out := emitted(r.cd); len(out) != 0 {
			t.Errorf("%s: answered with %d frames", tc.name, len(out))
		}
	}
	if r.store.Gets != 0 {
		t.Errorf("%d dropped frames reached the store", r.store.Gets)
	}
	// The frame they were all made from is served.
	inject(t, r.cd, good)
	if srv.Poll(); srv.Served != 1 {
		t.Fatalf("served %d for the well-formed frame", srv.Served)
	}
	out := emitted(r.cd)
	if len(out) != 1 || string(replyPayload(t, r.sd.HWAddr(), out[0], r.cd.HWAddr(), clientAddr)) != "-" {
		t.Fatalf("well-formed GET of a missing key answered with %d frames", len(out))
	}
}

// TestRawServerKeepsNothingOfTheRequest: the request frame is borrowed
// and recycled, so a SET must have copied what it stored.
func TestRawServerKeepsNothingOfTheRequest(t *testing.T) {
	r, srv := newRawRig(t)
	pool := uknetdev.NewNetbufPool(0, 2048, 1)
	nb := pool.Get()
	nb.Len = copy(nb.Data, r.request(setReq("key", []byte("the original value"))))
	if n, _, err := r.cd.TxBurst(0, []*uknetdev.Netbuf{nb}); n != 1 || err != nil {
		t.Fatalf("TxBurst = %d, %v", n, err)
	}
	if r.cd.Stats().ZCPackets != 1 {
		t.Fatal("the pooled request did not travel by reference")
	}
	srv.Poll()
	for i := range nb.Data {
		nb.Data[i] = 0xAA // what the next frame through this buffer does
	}
	nb.Release()
	if pool.FreeLen() != 1 {
		t.Fatal("the server still holds the request frame")
	}
	emitted(r.cd)
	inject(t, r.cd, r.request([]byte("Gkey")))
	srv.Poll()
	out := emitted(r.cd)
	if len(out) != 1 {
		t.Fatalf("%d replies to the GET", len(out))
	}
	if got := replyPayload(t, r.sd.HWAddr(), out[0], r.cd.HWAddr(), clientAddr); string(got) != "Vthe original value" {
		t.Fatalf("GET after the request frame was overwritten = %q", got)
	}
}

// TestRawServerOversizeReply: a stored value no frame can carry (it
// cannot arrive over the wire; another writer of the shared Store could
// put it there) is dropped, not appended out of the buffer.
func TestRawServerOversizeReply(t *testing.T) {
	r, srv := newRawRig(t)
	huge := bytes.Repeat([]byte("h"), 4096)
	r.store.data["huge"] = &huge
	inject(t, r.cd, r.request([]byte("Ghuge")))
	if srv.Poll(); srv.Served != 0 || srv.Dropped != 1 {
		t.Fatalf("served %d, dropped %d; want the reply dropped", srv.Served, srv.Dropped)
	}
	if out := emitted(r.cd); len(out) != 0 {
		t.Fatalf("%d frames emitted", len(out))
	}
	checkPoolWhole(t, srv)
}

// TestRawServerPerQueue: two servers on a two-queue device each answer
// the flow RSS steers to them, out of one Store.
func TestRawServerPerQueue(t *testing.T) {
	r := newRig(t, 2)
	servers := make([]*RawServer, 2)
	for q := range servers {
		servers[q] = NewRawServerQueue(r.sd, q, r.w.Shards[q].Machine(), closedloop.ServerIP, testPort, r.store)
	}
	r.serve = func() {
		for _, s := range servers {
			s.Poll()
		}
	}
	conns := make([]*netstack.UDPConn, 2)
	for q, port := range closedloop.Ports(testPort, netstack.ProtoUDP, 2, 2) {
		var err error
		if conns[q], err = r.w.Client.BindUDP(port); err != nil {
			t.Fatal(err)
		}
	}
	r.conn = conns[0]
	if got := r.exchange(t, setReq("shared", []byte("one store"))); string(got) != "+" {
		t.Fatalf("SET on queue 0 = %q", got)
	}
	r.conn = conns[1]
	for i := 0; i < 3; i++ {
		if got := r.exchange(t, []byte("Gshared")); string(got) != "Vone store" {
			t.Fatalf("GET on queue 1 = %q", got)
		}
	}
	if servers[0].Served != 1 || servers[1].Served != 3 || servers[0].Dropped+servers[1].Dropped != 0 {
		t.Fatalf("queue 0 served %d, queue 1 served %d, dropped %d+%d; want 1 and 3, none dropped",
			servers[0].Served, servers[1].Served, servers[0].Dropped, servers[1].Dropped)
	}
	for q, s := range servers {
		if c := s.machine.CPU.Cycles(); c == 0 {
			t.Errorf("core %d was charged nothing", q)
		}
	}
}

// TestRawServerSteadyStateAllocs is the gate on the raw datapath: once
// pools, queues and the client's slab exist, a burst of GETs — client
// SendTo, the client stack's polls, RawServer.Poll, RecvFrom —
// allocates nothing, makes no new buffer, and leaves every buffer the
// pool ever made back on its free list.
func TestRawServerSteadyStateAllocs(t *testing.T) {
	r, srv := newRawRig(t)
	req, want := r.warmGETs(t)
	news, served := srv.pool.News, srv.Served
	if n := testing.AllocsPerRun(50, func() { r.getRound(t, req, want) }); n != 0 {
		t.Fatalf("a warmed burst of %d GETs allocates %v times, want 0", rawBurst, n)
	}
	if got := srv.Served - served; got != 51*rawBurst {
		t.Fatalf("served %d requests in 51 bursts of %d", got, rawBurst)
	}
	if srv.pool.News != news {
		t.Fatalf("the pool made %d more buffers after the warm-up", srv.pool.News-news)
	}
	checkPoolWhole(t, srv)
	if s := r.sd.Stats(); s.ZCPackets != s.TxPackets {
		t.Fatalf("%d of %d reply frames travelled by reference", s.ZCPackets, s.TxPackets)
	}
}

func TestSocketServerSteadyStateAllocs(t *testing.T) {
	r, _ := newSocketRig(t)
	req, want := r.warmGETs(t)
	if n := testing.AllocsPerRun(50, func() { r.getRound(t, req, want) }); n != 0 {
		t.Fatalf("a warmed burst of %d GETs through the socket server allocates %v times, want 0", rawBurst, n)
	}
}

// rawWorld is a one-core closed-loop world whose core has no netstack:
// its RawServer polls the device queue itself.
func rawWorld(t *testing.T, st *Store) *closedloop.World {
	t.Helper()
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostUser)
	if err != nil {
		t.Fatal(err)
	}
	return &closedloop.World{
		Client: netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP}),
		Cores:  []*sim.Machine{sm},
		Apps:   []closedloop.App{NewRawServer(sd, closedloop.ServerIP, testPort, st)},
	}
}

// TestLoadFiresRoundRobin: Fire tops the clients up in turn and stops
// at the budget, so the last round of a run fires only what is left of
// it, spread over the clients from the first.
func TestLoadFiresRoundRobin(t *testing.T) {
	w := rawWorld(t, NewStore())
	load, err := NewLoad(w.Client, closedloop.ServerAddr(testPort), []uint16{0, 0, 0}, "k", []byte("v"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Connect(load); err != nil {
		t.Fatal(err)
	}
	load.Fire(4)
	load.Fire(4)
	if load.sent != 7 || load.inflight[0] != 3 || load.inflight[1] != 2 || load.inflight[2] != 2 {
		t.Fatalf("sent %d, in flight %v; want 7 as [3 2 2]", load.sent, load.inflight)
	}
	if n := w.Pump(load); n != 7 || load.Err() != nil {
		t.Fatalf("completed %d, %v; want 7", n, load.Err())
	}
}

// TestLoadCountsOnlyTheSeededValue: a GET answered with anything but the
// value the load seeded — another value, or a miss — is not a completed
// request, and the measurement fails.
func TestLoadCountsOnlyTheSeededValue(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*Store)
		ok    bool
	}{
		{"seeded value", func(*Store) {}, true},
		{"another value", func(st *Store) { v := []byte("w"); st.data["k"] = &v }, false},
		{"miss", func(st *Store) { delete(st.data, "k") }, false},
	} {
		st := NewStore()
		w := rawWorld(t, st)
		load, err := NewLoad(w.Client, closedloop.ServerAddr(testPort), []uint16{0}, "k", []byte("v"), 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Connect(load); err != nil {
			t.Fatal(err)
		}
		tc.spoil(st)
		m, err := w.Run(load, rawBurst, 100)
		if tc.ok {
			if err != nil || load.Err() != nil || m.Done != 100 {
				t.Errorf("%s: %d completed, %v, %v; want 100", tc.name, m.Done, err, load.Err())
			}
			continue
		}
		if err == nil || load.Err() == nil || m.Done != 0 {
			t.Errorf("%s: %d completed, %v, %v; want none and an error", tc.name, m.Done, err, load.Err())
		}
	}
}
