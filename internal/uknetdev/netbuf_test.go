package uknetdev

import (
	"bytes"
	"testing"

	"unikraft/internal/sim"
)

func TestNetbufPoolRecycles(t *testing.T) {
	p := NewNetbufPool(64, 2048, 2)
	if p.FreeLen() != 2 {
		t.Fatalf("prealloc free = %d, want 2", p.FreeLen())
	}
	a := p.Get()
	if a.Off != 64 || a.Len != 0 || a.Refs() != 1 || !a.Pooled() {
		t.Fatalf("fresh netbuf off=%d len=%d refs=%d pooled=%v", a.Off, a.Len, a.Refs(), a.Pooled())
	}
	a.Release()
	b := p.Get()
	if b != a {
		t.Error("free list did not recycle the released buffer (LIFO)")
	}
	if p.News != 0 {
		t.Errorf("News = %d, want 0 with a warm pool", p.News)
	}
	b.Release()
}

func TestNetbufPoolColdAllocates(t *testing.T) {
	p := NewNetbufPool(0, 128, 0)
	a, b := p.Get(), p.Get()
	if p.News != 2 {
		t.Errorf("News = %d, want 2 on a cold pool", p.News)
	}
	a.Release()
	b.Release()
	if p.FreeLen() != 2 {
		t.Errorf("free = %d after releases, want 2", p.FreeLen())
	}
}

func TestNetbufRefKeepsAlive(t *testing.T) {
	p := NewNetbufPool(0, 128, 1)
	nb := p.Get()
	nb.Ref()
	nb.Release()
	if nb.Refs() != 1 || p.FreeLen() != 0 {
		t.Fatalf("refs=%d free=%d after Ref+Release, want 1/0", nb.Refs(), p.FreeLen())
	}
	nb.Bytes() // still live: must not panic
	nb.Release()
	if p.FreeLen() != 1 {
		t.Fatalf("buffer not recycled after final release")
	}
}

func TestNetbufDoubleFreePanics(t *testing.T) {
	p := NewNetbufPool(0, 128, 1)
	nb := p.Get()
	nb.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	nb.Release()
}

func TestNetbufUseAfterReleasePanics(t *testing.T) {
	p := NewNetbufPool(16, 128, 1)
	for _, op := range []struct {
		name string
		f    func(nb *Netbuf)
	}{
		{"Bytes", func(nb *Netbuf) { nb.Bytes() }},
		{"Prepend", func(nb *Netbuf) { nb.Prepend(4) }},
		{"Trim", func(nb *Netbuf) { nb.Trim(1) }},
		{"Ref", func(nb *Netbuf) { nb.Ref() }},
	} {
		nb := p.Get()
		nb.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on released netbuf did not panic", op.name)
				}
			}()
			op.f(nb)
		}()
		// Revive for the next iteration: Get returns the same buffer.
	}
}

func TestNetbufUnmanagedReleasePanics(t *testing.T) {
	nb := NewNetbuf(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unmanaged netbuf did not panic")
		}
	}()
	nb.Release()
}

// TestZeroCopyHandoff: a pooled TX buffer crosses the device without a
// snapshot and comes back out of RxBurstZC as the same backing array.
func TestZeroCopyHandoff(t *testing.T) {
	a, b, _, _ := newPair(t)
	pool := NewNetbufPool(64, 2048, 4)
	nb := pool.Get()
	nb.Len = copy(nb.Data[nb.Off:], "zero copy payload")
	if n, _, err := a.TxBurst(0, []*Netbuf{nb}); n != 1 || err != nil {
		t.Fatalf("TxBurst = %d, %v", n, err)
	}
	if nb.Refs() != 2 {
		t.Fatalf("refs after TxBurst = %d, want 2 (caller + ring)", nb.Refs())
	}
	nb.Release() // caller's reference; ring still holds one
	out := make([]*Netbuf, 4)
	n, _, err := b.RxBurstZC(0, out)
	if n != 1 || err != nil {
		t.Fatalf("RxBurstZC = %d, %v", n, err)
	}
	if out[0] != nb {
		t.Error("RxBurstZC returned a different buffer: payload was copied")
	}
	if !bytes.Equal(out[0].Bytes(), []byte("zero copy payload")) {
		t.Errorf("payload = %q", out[0].Bytes())
	}
	if got := a.Stats().ZCPackets; got != 1 {
		t.Errorf("ZCPackets = %d, want 1", got)
	}
	out[0].Release()
	if pool.FreeLen() != 4 {
		t.Errorf("pool free = %d after round trip, want 4", pool.FreeLen())
	}
}

// TestUnmanagedTxSnapshots: the compatibility path still snapshots, so a
// caller reusing its buffer cannot corrupt in-flight frames.
func TestUnmanagedTxSnapshots(t *testing.T) {
	a, b, _, _ := newPair(t)
	nb := mkPkt([]byte("first"))
	a.TxBurst(0, []*Netbuf{nb})
	copy(nb.Data[nb.Off:], "XXXXX") // reuse before the peer drains
	rx := []*Netbuf{NewNetbuf(0, 2048)}
	if n, _, _ := b.RxBurst(0, rx); n != 1 {
		t.Fatal("no frame received")
	}
	if !bytes.Equal(rx[0].Bytes(), []byte("first")) {
		t.Errorf("in-flight frame corrupted by sender reuse: %q", rx[0].Bytes())
	}
}

// TestKickCoalescing: with TxKickBatch=N the device charges one VM exit
// per N frames, and FlushTx charges the straggler kick.
func TestKickCoalescing(t *testing.T) {
	ma, mb := sim.NewMachine(), sim.NewMachine()
	a, _, err := NewTunedPair(ma, mb, VhostNet, Tuning{TxKickBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a.TxBurst(0, []*Netbuf{mkPkt([]byte("x"))})
	}
	if got := a.Stats().Kicks; got != 2 {
		t.Fatalf("Kicks = %d after 20 frames at batch 8, want 2", got)
	}
	if got := a.Stats().KicksElided; got != 18 {
		t.Fatalf("KicksElided = %d, want 18", got)
	}
	a.FlushTx()
	if got := a.Stats().Kicks; got != 3 {
		t.Fatalf("Kicks = %d after flush, want 3", got)
	}
	a.FlushTx() // idempotent: nothing owed
	if got := a.Stats().Kicks; got != 3 {
		t.Fatalf("Kicks = %d after second flush, want 3", got)
	}
}

// TestKickCoalescingDeterministic: two identical runs produce identical
// kick counts and cycle charges regardless of burst partitioning
// internals.
func TestKickCoalescingDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		ma, mb := sim.NewMachine(), sim.NewMachine()
		a, _, err := NewTunedPair(ma, mb, VhostNet, Tuning{TxKickBatch: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 17; i++ {
			burst := make([]*Netbuf, 1+i%3)
			for j := range burst {
				burst[j] = mkPkt([]byte{byte(i), byte(j)})
			}
			a.TxBurst(0, burst)
		}
		a.FlushTx()
		return a.Stats().Kicks, ma.CPU.Cycles()
	}
	k1, c1 := run()
	k2, c2 := run()
	if k1 != k2 || c1 != c2 {
		t.Fatalf("non-deterministic coalescing: kicks %d/%d cycles %d/%d", k1, k2, c1, c2)
	}
}
