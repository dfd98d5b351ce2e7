package ukpool

import (
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukplat"
)

// TestServeRecyclesArenas: scale-downs, crash restarts and Close all end
// in VM.Close, so a serve that boots many times more instances than it
// ever runs at once takes no more heap arenas than its peak fleet, plus
// one for the fork template, and gives every one of them back.
func TestServeRecyclesArenas(t *testing.T) {
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
		opts := []Option{WithWarm(2), WithMaxInstances(256), WithColdBurst(2),
			WithServiceCost(4, 170_000), WithScaleWindow(20 * time.Millisecond),
			WithCrashHazard(0.002, 99)}
		template := 0
		if fork {
			snap, err := ctx.Snapshot(sim.NewMachine())
			if err != nil {
				t.Fatal(err)
			}
			template = 1
			opts = append(opts, WithOnClose(snap.Close), WithForkBoot(func(id int) (*ukboot.VM, error) {
				return ctx.Fork(sim.NewMachineWithSeed(uint64(id)), snap)
			}))
		}
		p := New(func(id int) (*ukboot.VM, error) {
			return ctx.Boot(sim.NewMachineWithSeed(uint64(id)))
		}, opts...)
		rep, err := p.Serve(NewBursty(3, 5_000, 300_000, 100*time.Millisecond, 0.3, 60_000, 128))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retired == 0 || rep.Crashes == 0 || int(rep.Boot.Count) <= 2*rep.PeakInstances {
			t.Fatalf("fork=%v: serve did not churn instances: %d boots, peak %d, %d retired, %d crashes",
				fork, rep.Boot.Count, rep.PeakInstances, rep.Retired, rep.Crashes)
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
