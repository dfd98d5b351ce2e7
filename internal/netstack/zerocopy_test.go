package netstack

import (
	"testing"

	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// zcWorld builds a client/server stack pair; zc selects the zero-copy
// socket path on both, and tuning applies kick/IRQ coalescing.
func zcWorld(t *testing.T, zc bool, tuning uknetdev.Tuning) (cm, sm *sim.Machine, client, server *Stack) {
	t.Helper()
	cm, sm = sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewTunedPair(cm, sm, uknetdev.VhostNet, tuning)
	if err != nil {
		t.Fatal(err)
	}
	client = New(cm, cd, Config{Addr: IP(10, 0, 0, 1), Name: "client", ZeroCopy: zc})
	server = New(sm, sd, Config{Addr: IP(10, 0, 0, 2), Name: "server", ZeroCopy: zc})
	return
}

// run one TCP request/response exchange and return server cycles.
func zcExchange(t *testing.T, zc bool, tuning uknetdev.Tuning) uint64 {
	t.Helper()
	_, sm, client, server := zcWorld(t, zc, tuning)
	lis, err := server.ListenTCP(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := client.ConnectTCP(AddrPort{Addr: IP(10, 0, 0, 2), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	Pump(client, server)
	sc, ok := lis.Accept()
	if !ok || !cc.Established() {
		t.Fatal("handshake failed")
	}
	start := sm.CPU.Cycles()
	req := make([]byte, 256)
	resp := make([]byte, 1024)
	buf := make([]byte, 4096)
	// Pipelined rounds, like the paper's 30-connection load generators:
	// a burst of requests goes in, a burst of responses comes out, so TX
	// kick batching has frames to amortize over.
	for round := 0; round < 10; round++ {
		for i := 0; i < 16; i++ {
			cc.Write(req)
		}
		Pump(client, server)
		for sc.rcvLen > 0 {
			sc.Read(buf)
		}
		for i := 0; i < 16; i++ {
			sc.Write(resp)
		}
		Pump(client, server)
		for cc.rcvLen > 0 {
			cc.Read(buf)
		}
	}
	return sm.CPU.Cycles() - start
}

// TestZeroCopyCheaper: the zero-copy socket path charges strictly fewer
// server cycles than the copying path for the same exchange, and kick
// batching reduces it further.
func TestZeroCopyCheaper(t *testing.T) {
	copying := zcExchange(t, false, uknetdev.Tuning{})
	zc := zcExchange(t, true, uknetdev.Tuning{})
	zcBatched := zcExchange(t, true, uknetdev.Tuning{TxKickBatch: 16})
	if zc >= copying {
		t.Errorf("zero-copy cycles %d >= copying %d", zc, copying)
	}
	if zcBatched >= zc {
		t.Errorf("batched kicks %d >= unbatched %d", zcBatched, zc)
	}
	if ratio := float64(copying) / float64(zcBatched); ratio < 1.3 {
		t.Errorf("zero-copy+batch speedup = %.2fx, want >= 1.3x", ratio)
	}
}

// TestZeroCopyDataIntact: payloads survive the pooled zero-copy device
// handoff byte for byte.
func TestZeroCopyDataIntact(t *testing.T) {
	_, _, client, server := zcWorld(t, true, uknetdev.Tuning{TxKickBatch: 8})
	lis, err := server.ListenTCP(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := client.ConnectTCP(AddrPort{Addr: IP(10, 0, 0, 2), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	Pump(client, server)
	sc, ok := lis.Accept()
	if !ok {
		t.Fatal("no accepted conn")
	}
	msg := make([]byte, 4000) // spans multiple segments
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	sent := 0
	for sent < len(msg) {
		n, err := cc.Write(msg[sent:])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		Pump(client, server)
	}
	got := make([]byte, 0, len(msg))
	buf := make([]byte, 1024)
	for sc.rcvLen > 0 {
		n, _ := sc.Read(buf)
		got = append(got, buf[:n]...)
	}
	if len(got) != len(msg) {
		t.Fatalf("received %d bytes, want %d", len(got), len(msg))
	}
	for i := range got {
		if got[i] != msg[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], msg[i])
		}
	}
}

// TestOversizeDatagramDroppedNotPanic: a UDP payload beyond the pooled
// TX buffer geometry must fall back to a right-sized frame and be
// dropped at the device MTU check — the pre-pool behaviour — not panic.
func TestOversizeDatagramDroppedNotPanic(t *testing.T) {
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	client := New(cm, cd, Config{Addr: IP(10, 0, 0, 1)})
	server := New(sm, sd, Config{Addr: IP(10, 0, 0, 2)})
	conn, err := client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SendTo(AddrPort{Addr: IP(10, 0, 0, 2), Port: 9}, make([]byte, 3000)); err != nil {
		t.Fatalf("SendTo = %v", err)
	}
	Pump(client, server)
	// The jumbo frame reaches the device (after ARP resolution) and is
	// dropped there, never delivered.
	if drops := cd.Stats().TxDrops; drops != 1 {
		t.Errorf("TxDrops = %d, want 1 (frame exceeds MTU)", drops)
	}
	if got := server.Stats().UDPIn; got != 0 {
		t.Errorf("oversize datagram delivered (UDPIn=%d)", got)
	}
}

// TestPumpSkipsQuiescentStacks: with many idle stacks in the set, Pump
// must not re-poll them every round. The device stats prove it: an idle
// stack's machine spends nothing while the busy pair exchanges traffic.
func TestPumpSkipsQuiescentStacks(t *testing.T) {
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	client := New(cm, cd, Config{Addr: IP(10, 0, 0, 1)})
	server := New(sm, sd, Config{Addr: IP(10, 0, 0, 2)})

	// Idle bystanders on their own unconnected devices.
	var idle []*Stack
	for i := 0; i < 8; i++ {
		im := sim.NewMachine()
		id1, _, err := uknetdev.NewPair(im, sim.NewMachine(), uknetdev.VhostNet)
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, New(im, id1, Config{Addr: IP(10, 1, 0, byte(i+1))}))
	}

	lis, err := server.ListenTCP(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := client.ConnectTCP(AddrPort{Addr: IP(10, 0, 0, 2), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	all := append([]*Stack{client, server}, idle...)
	Pump(all...)
	if _, ok := lis.Accept(); !ok || !cc.Established() {
		t.Fatal("handshake failed with idle stacks in the pump set")
	}
	cc.Write([]byte("payload"))
	Pump(all...)
	for _, s := range idle {
		if got := s.Machine().CPU.Cycles(); got != 0 {
			t.Errorf("idle stack %s spent %d cycles; quiescent stacks must be skipped", s.cfg.Addr, got)
		}
	}
}
