package ukpool

import (
	"testing"
	"time"

	"unikraft/internal/sim"
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
		p, err := New(ctx, func(id int) *sim.Machine { return sim.NewMachineWithSeed(uint64(id)) }, fork, cfg)
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
