package experiments

import (
	"fmt"

	"unikraft/internal/apps/udpkv"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

func init() {
	register("smpscale", "SMP multi-queue scaling: req/s vs core count", smpscale)
}

// smpCoreCounts is the scaling sweep: 1 core is the calibrated
// single-queue baseline, 8 is the virtio-net queue maximum.
var smpCoreCounts = []int{1, 2, 4, 8}

// smpConns is the sweep's TCP connection count: a multiple of every
// core count, so RSS-pinned flows spread exactly evenly.
const smpConns = 32

// udpkvRate measures the specialized udpkv datapath over a multi-queue
// device: one RawServer per core, each polling its own queue on its own
// vCPU clock, client flows pinned by source port so RSS spreads them
// evenly. The rate is requests per second of the busiest core — the
// quantity that scales with cores when the datapath truly shares
// nothing; cores=1 is Table 4's uknetdev-polling row. The server side
// bypasses netstack, so this driver keeps its own one-pass poll instead
// of the closed-loop world's pump. A non-nil win gets core 0's ledger
// over the measured requests.
func udpkvRate(env *Env, cores, reqs int, win *window) (float64, error) {
	cm := env.NewMachine()
	ms := make([]*sim.Machine, cores)
	for i := range ms {
		ms[i] = env.NewMachine()
	}
	cd, sd, err := uknetdev.NewMultiQueuePair(cm, ms, uknetdev.VhostUser, uknetdev.Tuning{})
	if err != nil {
		return 0, err
	}
	addr := closedloop.ServerAddr(5000)
	client := netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP})
	store := udpkv.NewStore()
	servers := make([]*udpkv.RawServer, cores)
	for i := range servers {
		servers[i] = udpkv.NewRawServerQueue(sd, i, ms[i], addr.Addr, addr.Port, store)
	}
	ports := closedloop.Ports(addr.Port, netstack.ProtoUDP, cores, cores)
	clients := make([]*udpkv.Client, cores)
	for i := range clients {
		c, err := udpkv.NewClientFrom(client, ports[i], addr)
		if err != nil {
			return 0, err
		}
		clients[i] = c
	}

	poll := func() {
		client.Poll()
		for _, s := range servers {
			s.Poll()
		}
		client.Poll()
	}
	// Warm up: resolve ARP (steered to queue 0) and seed the key, off
	// the measured clock.
	clients[0].Set("k", []byte("v"))
	for round := 0; store.Len() == 0 && round < 8; round++ {
		poll()
	}
	if store.Len() == 0 {
		return 0, fmt.Errorf("smpscale: udpkv warmup did not store the key")
	}
	poll()
	for _, c := range clients {
		c.Drain()
	}

	starts := make([]uint64, cores)
	for i, m := range ms {
		starts[i] = m.CPU.Cycles()
	}
	win.open(ms[0])
	done := 0
	for done < reqs {
		n := reqs - done
		if n > 32 {
			n = 32
		}
		for i := 0; i < n; i++ {
			clients[i%cores].Get("k")
		}
		poll()
		for _, c := range clients {
			done += len(c.Drain())
		}
	}
	win.close(ms[0], done)
	var maxCycles uint64
	for i, m := range ms {
		if c := m.CPU.Cycles() - starts[i]; c > maxCycles {
			maxCycles = c
		}
	}
	return float64(ms[0].CPU.Hz) / (float64(maxCycles) / float64(done)), nil
}

// smpscale sweeps the three serving workloads from 1 to 8 cores and
// reports absolute rate plus speedup over the workload's own 1-core
// row. The udpkv path is shared-nothing end to end (per-core queue,
// server and clock), so it scales linearly by construction — the row
// the baseline gates. The TCP workloads shard the whole netstack and
// allocator per core and land near-linear, paying only for uneven
// flow-to-connection work.
func smpscale(env *Env) (*Result, error) {
	res := &Result{
		ID: "smpscale", Title: Title("smpscale"),
		Headers: []string{"app", "cores", "req/s", "speedup", "source"},
	}
	type workload struct {
		name string
		reqs int
		run  func(env *Env, cores, reqs int) (float64, error)
	}
	for _, wl := range []workload{
		{"udpkv-raw", 5000, func(env *Env, cores, reqs int) (float64, error) {
			return udpkvRate(env, cores, reqs, nil)
		}},
		{"nginx", 3000, func(env *Env, cores, reqs int) (float64, error) {
			return nginxRate(env, closedloop.Config{Cores: cores, Alloc: "tlsf"}, smpConns, reqs, nil)
		}},
		{"redis-set", 6000, func(env *Env, cores, reqs int) (float64, error) {
			return redisRate(env, closedloop.Config{Cores: cores, Alloc: "mimalloc"}, true, smpConns, reqs, nil)
		}},
	} {
		var base float64
		for _, cores := range smpCoreCounts {
			rate, err := wl.run(env, cores, wl.reqs)
			if err != nil {
				return nil, err
			}
			if cores == 1 {
				base = rate
			}
			res.Rows = append(res.Rows, []string{
				wl.name, fmt.Sprintf("%d", cores), krps(rate), f2(rate / base), "measured",
			})
		}
	}
	res.Notes = append(res.Notes,
		"shared-nothing per-core queues/stacks/arenas; udpkv-raw at 1 core reproduces tab4's uknetdev-polling row, 8 cores is 8.00x by RSS-even flow spread")
	return res, nil
}
