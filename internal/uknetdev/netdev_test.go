package uknetdev

import (
	"bytes"
	"testing"
	"testing/quick"

	"unikraft/internal/sim"
)

func newPair(t *testing.T) (*VirtioNet, *VirtioNet, *sim.Machine, *sim.Machine) {
	t.Helper()
	ma, mb := sim.NewMachine(), sim.NewMachine()
	a, b, err := NewPair(ma, mb, VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, ma, mb
}

func mkPkt(payload []byte) *Netbuf {
	nb := NewNetbuf(64, 1514)
	copy(nb.Data[nb.Off:], payload)
	nb.Len = len(payload)
	return nb
}

func TestTxRxRoundTrip(t *testing.T) {
	a, b, _, _ := newPair(t)
	msg := []byte("hello unikraft")
	n, _, err := a.TxBurst(0, []*Netbuf{mkPkt(msg)})
	if err != nil || n != 1 {
		t.Fatalf("TxBurst = %d, %v", n, err)
	}
	rx := []*Netbuf{NewNetbuf(0, 2048)}
	n, more, err := b.RxBurst(0, rx)
	if err != nil || n != 1 {
		t.Fatalf("RxBurst = %d, %v", n, err)
	}
	if more {
		t.Error("more = true with empty ring")
	}
	if !bytes.Equal(rx[0].Bytes(), msg) {
		t.Fatalf("payload = %q, want %q", rx[0].Bytes(), msg)
	}
}

func TestBurstSemantics(t *testing.T) {
	a, b, _, _ := newPair(t)
	var pkts []*Netbuf
	for i := 0; i < 10; i++ {
		pkts = append(pkts, mkPkt([]byte{byte(i)}))
	}
	if n, _, _ := a.TxBurst(0, pkts); n != 10 {
		t.Fatalf("TxBurst = %d, want 10", n)
	}
	rx := make([]*Netbuf, 4)
	for i := range rx {
		rx[i] = NewNetbuf(0, 2048)
	}
	n, more, _ := b.RxBurst(0, rx)
	if n != 4 || !more {
		t.Fatalf("first RxBurst = %d more=%v, want 4 true", n, more)
	}
	n, more, _ = b.RxBurst(0, rx)
	if n != 4 || !more {
		t.Fatalf("second RxBurst = %d more=%v, want 4 true", n, more)
	}
	n, more, _ = b.RxBurst(0, rx)
	if n != 2 || more {
		t.Fatalf("third RxBurst = %d more=%v, want 2 false", n, more)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	a, b, _, _ := newPair(t)
	const ring = 4096 // NewPair ring size
	for i := 0; i < ring+50; i++ {
		a.TxBurst(0, []*Netbuf{mkPkt([]byte("x"))})
	}
	if got := b.Stats().RxDrops; got != 50 {
		t.Fatalf("RxDrops = %d, want 50", got)
	}
	if got := b.Pending(0); got != ring {
		t.Fatalf("Pending = %d, want %d", got, ring)
	}
}

func TestKickAccounting(t *testing.T) {
	ma, mb := sim.NewMachine(), sim.NewMachine()
	a, _, err := NewPair(ma, mb, VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	var burst []*Netbuf
	for i := 0; i < 16; i++ {
		burst = append(burst, mkPkt([]byte("x")))
	}
	before := ma.CPU.Cycles()
	a.TxBurst(0, burst)
	batched := ma.CPU.Cycles() - before
	if got := a.Stats().Kicks; got != 1 {
		t.Fatalf("Kicks = %d, want 1 per burst", got)
	}
	// One kick per packet would cost far more: batching matters.
	perPkt := uint64(16)*driverTxCycles + 16*VhostNet.KickCycles
	if batched >= perPkt {
		t.Fatalf("batched cost %d >= per-packet cost %d", batched, perPkt)
	}

	// vhost-user polls: no kicks at all.
	mc, md := sim.NewMachine(), sim.NewMachine()
	c, _, err := NewPair(mc, md, VhostUser)
	if err != nil {
		t.Fatal(err)
	}
	c.TxBurst(0, burst)
	if got := c.Stats().Kicks; got != 0 {
		t.Fatalf("vhost-user Kicks = %d, want 0", got)
	}
}

func TestNetbufHeadroom(t *testing.T) {
	nb := NewNetbuf(32, 100)
	nb.Len = 10
	if got := nb.Prepend(14); len(got) != 14 {
		t.Fatalf("Prepend(14) len = %d", len(got))
	}
	if nb.Len != 24 || nb.Off != 18 {
		t.Fatalf("after prepend: off=%d len=%d", nb.Off, nb.Len)
	}
	nb.Trim(14)
	if nb.Len != 10 || nb.Off != 32 {
		t.Fatalf("after trim: off=%d len=%d", nb.Off, nb.Len)
	}
	nb2 := NewNetbuf(4, 10)
	if nb2.Prepend(8) != nil {
		t.Fatal("Prepend beyond headroom succeeded")
	}
}

// TestFig19Shape verifies the TX bottleneck model's qualitative
// properties across packet sizes (the full figure is produced by the
// experiments package).
func TestFig19Shape(t *testing.T) {
	m := sim.NewMachine()
	guest := GuestTxCyclesPerPkt() + 40 // driver + minimal app loop
	at := func(b Backend, size int) float64 {
		return SustainableTxRate(m, guest, b, TenGbE, size)
	}
	// vhost-user beats vhost-net by ~10x at small packets.
	vu64, vn64 := at(VhostUser, 64), at(VhostNet, 64)
	if vu64 < 5*vn64 {
		t.Errorf("64B: vhost-user %.1fMp/s vs vhost-net %.1fMp/s; want >=5x", vu64/1e6, vn64/1e6)
	}
	if vu64 < 10e6 || vu64 > 14.3e6 {
		t.Errorf("64B vhost-user = %.1fMp/s, want ~13Mp/s (Fig 19)", vu64/1e6)
	}
	// At 1500B the wire is the bottleneck and both converge.
	vu1500, vn1500 := at(VhostUser, 1500), at(VhostNet, 1500)
	line := TenGbE.MaxPacketsPerSecond(1500)
	if vu1500 != line {
		t.Errorf("1500B vhost-user = %.2fMp/s, want line rate %.2fMp/s", vu1500/1e6, line/1e6)
	}
	if vn1500 > vu1500 {
		t.Errorf("vhost-net above vhost-user at 1500B")
	}
}

// TestLineRateMonotone property: line-rate packet bound decreases with
// frame size.
func TestLineRateMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%1437+64, int(b)%1437+64
		if x > y {
			x, y = y, x
		}
		return TenGbE.MaxPacketsPerSecond(x) >= TenGbE.MaxPacketsPerSecond(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
