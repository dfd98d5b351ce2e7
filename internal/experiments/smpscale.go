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

// udpkvPort is where Table 4's udpkv servers listen.
const udpkvPort = 5000

// udpkvBurst is the GETs Table 4's datapaths have in flight per round
// over all clients: RawServer's 32-frame burst.
const udpkvBurst = 32

// udpkvRate measures udpkv on cores server cores over a vhost-user
// multi-queue pair, one client per core pinned by source port so RSS
// spreads the flows evenly. Each core serves its own queue with a
// RawServer straight off the device (Table 4's uknetdev-polling row at
// one core), or, with lwip, with a SocketServer over its own netstack
// shard and lwIP's socket layer (the lwip-sockets row).
func udpkvRate(env *Env, cores, reqs int, lwip bool) (closedloop.Measure, error) {
	cm := env.NewMachine()
	w := &closedloop.World{Cores: make([]*sim.Machine, cores)}
	for i := range w.Cores {
		w.Cores[i] = env.NewMachine()
	}
	cd, sd, err := uknetdev.NewMultiQueuePair(cm, w.Cores, uknetdev.VhostUser, uknetdev.Tuning{})
	if err != nil {
		return closedloop.Measure{}, err
	}
	w.Client = netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP})
	store := udpkv.NewStore()
	for i, m := range w.Cores {
		if !lwip {
			w.Apps = append(w.Apps, udpkv.NewRawServerQueue(sd, i, m, closedloop.ServerIP, udpkvPort, store))
			continue
		}
		s := netstack.New(m, sd, netstack.Config{Addr: closedloop.ServerIP, LwIPSocket: true, RxQueue: i, TxQueue: i})
		if i > 0 {
			s.SeedARP(closedloop.ClientIP, cd.HWAddr())
		}
		srv, err := udpkv.NewSocketServer(s, udpkvPort, store)
		if err != nil {
			return closedloop.Measure{}, err
		}
		w.Shards, w.Apps = append(w.Shards, s), append(w.Apps, srv)
	}
	ports := closedloop.Ports(udpkvPort, netstack.ProtoUDP, cores, cores)
	load, err := udpkv.NewLoad(w.Client, closedloop.ServerAddr(udpkvPort), ports, "k", []byte("v"), reqs)
	if err != nil {
		return closedloop.Measure{}, err
	}
	var m closedloop.Measure
	if err = w.Connect(load); err == nil {
		m, err = w.Run(load, udpkvBurst/cores, reqs)
	}
	if load.Err() != nil {
		return m, load.Err()
	}
	return m, err
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
	for _, wl := range []struct {
		name string
		run  func(cores int) (closedloop.Measure, error)
	}{
		{"udpkv-raw", func(cores int) (closedloop.Measure, error) { return udpkvRate(env, cores, tab4Reqs, false) }},
		{"nginx", func(cores int) (closedloop.Measure, error) {
			return nginxRate(env, closedloop.Config{Cores: cores, Alloc: "tlsf"}, smpConns, 3000)
		}},
		{"redis-set", func(cores int) (closedloop.Measure, error) {
			return redisRate(env, closedloop.Config{Cores: cores, Alloc: "mimalloc"}, true, smpConns, 6000)
		}},
	} {
		var base float64
		for _, cores := range smpCoreCounts {
			m, err := wl.run(cores)
			if err != nil {
				return nil, err
			}
			if cores == 1 {
				base = m.Rate
			}
			res.Rows = append(res.Rows, []string{
				wl.name, fmt.Sprintf("%d", cores), krps(m.Rate), f2(m.Rate / base), "measured",
			})
		}
	}
	res.Notes = append(res.Notes,
		"shared-nothing per-core queues/stacks/arenas; udpkv-raw at 1 core reproduces tab4's uknetdev-polling row, 8 cores is 8.00x by RSS-even flow spread")
	return res, nil
}
