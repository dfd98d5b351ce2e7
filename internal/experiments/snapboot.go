package experiments

import (
	"fmt"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukpool"
)

func init() {
	register("snapboot", "Snapshot-fork instantiation vs cold boot vs warm reset", snapboot)
}

// snapboot measures the three instantiation paths per application —
// the full Fig 10 cold-boot pipeline, a copy-on-write fork of a
// captured snapshot, and VM.Reset of an already-live instance — then
// replays a million-request bursty trace through a full-boot fleet and
// a fork-boot fleet to show what cheaper cold starts buy at the tail.
// The cold rows reproduce the fig10 shape (VMM setup dominating, guest
// constructors behind it); the fork rows charge only snapshot restore
// plus private-page faults.
func snapboot(env *Env) (*Result, error) {
	res := &Result{
		ID: "snapboot", Title: Title("snapboot"),
		Headers: []string{"app", "mode", "ms", "speedup"},
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%.4g", float64(d)/float64(time.Millisecond)) }
	x := func(f float64) string { return fmt.Sprintf("%.2fx", f) }

	var nginxCtx *ukboot.Context
	var nginxSnap *ukboot.Snapshot
	for _, app := range []string{"helloworld", "nginx", "redis"} {
		bootCfg, err := firecrackerGuest(env, app)
		if err != nil {
			return nil, err
		}
		ctx, err := ukboot.NewContext(bootCfg)
		if err != nil {
			return nil, err
		}
		cold, err := ctx.Boot(env.NewMachine())
		if err != nil {
			return nil, err
		}
		snap, err := ctx.Snapshot(env.NewMachine())
		if err != nil {
			return nil, err
		}
		fork, err := ctx.Fork(env.NewMachine(), snap)
		if err != nil {
			return nil, err
		}
		// Reset recycles the live cold instance: dirty its heap first,
		// the way a serving tenant would have.
		if _, err := cold.Heap.Malloc(256 << 10); err != nil {
			return nil, err
		}
		m := cold.Machine
		start := m.CPU.Cycles()
		if err := cold.Reset(); err != nil {
			return nil, err
		}
		reset := m.CPU.Duration(m.CPU.Cycles() - start)

		coldT, forkT := cold.Report.Total(), fork.Report.Total()
		res.Rows = append(res.Rows,
			[]string{app, "cold", ms(coldT), x(1)},
			[]string{app, "fork", ms(forkT), x(float64(coldT) / float64(forkT))},
			[]string{app, "reset", ms(reset), x(float64(coldT) / float64(reset))},
		)
		fork.Close()
		if app == "nginx" {
			nginxCtx, nginxSnap = ctx, snap
			cold.Close() // keep the snapshot for the serving comparison
		} else {
			cold.Close()
			snap.Close()
		}
	}
	defer nginxSnap.Close()

	// The serving story: the same million-request bursty nginx trace
	// through a demand-driven fleet, once with full cold boots and once
	// with snapshot forks.
	const burstyRequests = 1_000_000
	trace := func() ukpool.Workload {
		return ukpool.NewBursty(2, 50_000, 250_000, 200*time.Millisecond, 0.4, burstyRequests, 256)
	}
	bootPool := ukpool.New(func(id int) (*ukboot.VM, error) {
		return nginxCtx.Boot(sim.NewMachineWithSeed(uint64(id)))
	}, burstFleetOpts()...)
	defer bootPool.Close()
	bootRep, err := bootPool.Serve(trace())
	if err != nil {
		return nil, err
	}
	forkPool := ukpool.New(func(id int) (*ukboot.VM, error) {
		return nginxCtx.Boot(sim.NewMachineWithSeed(uint64(id)))
	}, burstFleetOpts(ukpool.WithForkBoot(func(id int) (*ukboot.VM, error) {
		return nginxCtx.Fork(sim.NewMachineWithSeed(uint64(id)), nginxSnap)
	}))...)
	defer forkPool.Close()
	forkRep, err := forkPool.Serve(trace())
	if err != nil {
		return nil, err
	}

	bp99 := bootRep.Latency.Quantile(0.99)
	fp99 := forkRep.Latency.Quantile(0.99)
	res.Rows = append(res.Rows,
		[]string{"nginx", "bursty-1M-boot", ms(bp99), x(1)},
		[]string{"nginx", "bursty-1M-fork", ms(fp99), x(float64(bp99) / float64(fp99))},
	)
	res.Notes = append(res.Notes,
		"cold/fork/reset rows: instantiation time (VMM + guest); fork charges snapshot restore + COW faults only",
		fmt.Sprintf("bursty rows: end-to-end p99 over a %d-request on/off nginx trace (cold starts on the burst edge)", burstyRequests),
		fmt.Sprintf("fork fleet: cold p99 %v vs %v full-boot; %d forks, fleet peak %d vs %d",
			forkRep.ColdBoot.Quantile(0.99).Round(time.Microsecond),
			bootRep.ColdBoot.Quantile(0.99).Round(time.Microsecond),
			forkRep.ForkBoots, forkRep.PeakInstances, bootRep.PeakInstances),
		"prefer VM.Reset to recycle a live instance between tenants; prefer fork to mint new instances under burst or for per-request isolation",
	)
	return res, nil
}
