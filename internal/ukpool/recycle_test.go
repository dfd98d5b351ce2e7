package ukpool

import (
	"runtime"
	"testing"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukplat"
)

// TestServeRecyclesArenas: scale-downs, crash restarts and Close all end
// in VM.Close, and a heap recycle re-initializes over the instance's own
// arena, so a serve that boots many times more instances than it ever
// runs at once, and recycles some, takes no more heap arenas than its
// peak fleet, plus one for the fork template, and gives every one of
// them back. The bursty trace churns the fleet; its steady tail, one
// request per millisecond, keeps one instance hot for several
// recycleEvery periods.
func TestServeRecyclesArenas(t *testing.T) {
	var reqs []Request
	w := NewBursty(3, 5_000, 300_000, 100*time.Millisecond, 0.3, 60_000, 128)
	for req, ok := w.Next(); ok; req, ok = w.Next() {
		reqs = append(reqs, req)
	}
	end := reqs[len(reqs)-1].Arrival
	for i := range 3 * recycleEvery {
		reqs = append(reqs, Request{Arrival: end + time.Duration(i+1)*time.Millisecond, Bytes: 128})
	}
	for _, fork := range []bool{false, true} {
		ctx, err := ukboot.NewContext(ukboot.Config{
			Platform:   ukplat.KVMFirecracker,
			MemBytes:   8 << 20,
			ImageBytes: 1 << 20,
			Allocator:  "tlsf",
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{MinWarm: 2, MaxInstances: 256, ColdBurst: 2,
			SyscallsPerRequest: 4, AppCycles: 170_000, ScaleWindow: 20 * time.Millisecond,
			Faults: ukfault.VMFaults{Hazard: 0.0002}, FaultSeed: 99}
		template := 0
		if fork {
			template = 1
		}
		p, err := New(ctx, 0, fork, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Serve(NewTrace(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retired == 0 || rep.Crashes == 0 || rep.Resets == 0 || int(rep.Boot.Count) <= 2*rep.PeakInstances {
			t.Fatalf("fork=%v: serve did not churn instances: %d boots, peak %d, %d retired, %d crashes, %d resets",
				fork, rep.Boot.Count, rep.PeakInstances, rep.Retired, rep.Crashes, rep.Resets)
		}
		made, _ := ctx.Arenas()
		if made > rep.PeakInstances+template {
			t.Errorf("fork=%v: %d boots took %d fresh arenas, peak fleet was %d",
				fork, rep.Boot.Count, made, rep.PeakInstances)
		}
		p.Close()
		if made, free := ctx.Arenas(); free != made {
			t.Errorf("fork=%v: %d of %d arenas back on the free list after Close", fork, free, made)
		}
	}
}

// TestColdBootAfterPeakAllocs: once the fleet has peaked, a cold boot
// takes a retired instance and its machine from the pool's spare list
// and its VM's parts from the boot context, so it makes one object, the
// *VM. The fleet peaks at its warm floor, every crash trips the breaker
// and retires its instance, and the arrivals keep all survivors busy,
// so the cold boots that refill the fleet all come after the peak. Two
// pools in the same state serve traces of n and 2n requests; the
// longer serve's extra cold boots may cost one object each, everything
// else a serve makes is the same for both, and slack covers what the
// runtime allocates for itself meanwhile.
func TestColdBootAfterPeakAllocs(t *testing.T) {
	cfg := Config{MinWarm: 8, MaxInstances: 8, NoAutoscale: true, BreakerAfter: 1,
		Faults: ukfault.VMFaults{Hazard: 0.02}, FaultSeed: 3}
	serve := func(n int) (objs uint64, cold int) {
		p, err := New(testContext(t), 0, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// Peak: the warm floor, then churn enough that every instance and
		// every VM part the fleet will use exist.
		if _, err := p.Serve(NewPoisson(1, 200_000, 2_000, 64)); err != nil {
			t.Fatal(err)
		}
		w := NewPoisson(2, 200_000, n, 64)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep, err := p.Serve(w)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, rep.ColdBoots
	}
	objsN, coldN := serve(10_000)
	objs2N, cold2N := serve(20_000)
	t.Logf("n: %d objects, %d cold boots; 2n: %d objects, %d cold boots", objsN, coldN, objs2N, cold2N)
	if cold2N-coldN < 50 {
		t.Fatalf("%d and %d cold boots: the trace does not churn the fleet", coldN, cold2N)
	}
	const slack = 8
	if extra := int(objs2N) - int(objsN); extra > cold2N-coldN+slack {
		t.Errorf("%d more cold boots made %d more objects, want at most one each", cold2N-coldN, extra)
	}
}
