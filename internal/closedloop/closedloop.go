// Package closedloop is the one closed-loop serving world every
// throughput figure is measured on (Figs 12/13/15/18, zerocopy,
// fileserve, smpscale) and the webserver/fileserver examples drive: a
// load-generator stack on its own machine, N server cores over one
// multi-queue virtio pair — shard i polling queue i on core i with its
// own allocator arena — pumped to quiescence, with throughput read as
// Hz over the busiest core's cycles per request. Cores, datapath and
// allocator are parameters of this one structure; the calibrated
// single-queue configuration of the paper's figures is Cores = 1.
package closedloop

import (
	"encoding/binary"
	"fmt"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

// ClientIP and ServerIP address the two ends of every world.
var (
	ClientIP = netstack.IP(10, 0, 0, 1)
	ServerIP = netstack.IP(10, 0, 0, 2)
)

// ServerAddr is the address a server of the world listens on.
func ServerAddr(port uint16) netstack.AddrPort {
	return netstack.AddrPort{Addr: ServerIP, Port: port}
}

// rtoAdvance is how far every clock jumps when a round completes
// nothing: past netstack's initialRTO (180M cycles, 50 ms at 3.6 GHz),
// so the retransmission timer of a lost segment fires on the next poll.
// Clocks only advance with work, so without the jump a loss would spin.
const rtoAdvance = 200_000_000

// maxStalls bounds consecutive rtoAdvance jumps without a completion.
// netstack aborts a connection after eight doubling retries, 460 jumps
// from the first loss; past that nothing can complete any more.
const maxStalls = 512

// Generator is the load side of the loop: httpd.LoadGen, kvstore.Bench.
type Generator interface {
	// Ready reports every connection established.
	Ready() bool
	// Fire tops every connection up to depth outstanding requests.
	Fire(depth int)
	// Collect consumes replies and returns how many completed.
	Collect() int
}

// App is the serving side of one core: httpd.Server, kvstore.Server.
type App interface{ Poll() }

// World is the topology. New builds the standard one; a caller wiring
// its own devices fills Client, Shards and Apps itself.
type World struct {
	Client *netstack.Stack
	// Shards[i] is core i's netstack over device queue i, on its own
	// machine; Allocs.Shard(i) is that core's arena.
	Shards []*netstack.Stack
	Allocs *ukalloc.Shards
	// Apps[i] serves Shards[i].
	Apps []App
}

// Config is what the callers of New set differently.
type Config struct {
	// Cores is the number of server vCPUs, device queues, netstack
	// shards and allocator arenas.
	Cores int
	// Alloc names the allocator backend of every core's 64 MB arena.
	Alloc string
	// ZeroCopy selects the zero-copy socket path on every stack, Tuning
	// the kick/IRQ coalescing on both devices; the zero values are the
	// calibrated copying, kick-per-burst datapath.
	ZeroCopy bool
	Tuning   uknetdev.Tuning
}

// New builds a world over vhost-net on machines from newMachine.
func New(newMachine func() *sim.Machine, cfg Config) (*World, error) {
	cm, ms := newMachine(), make([]*sim.Machine, cfg.Cores)
	sinks := make([]ukalloc.CostSink, cfg.Cores)
	for i := range ms {
		ms[i] = newMachine()
		sinks[i] = ms[i]
	}
	cd, sd, err := uknetdev.NewMultiQueuePair(cm, ms, uknetdev.VhostNet, cfg.Tuning)
	if err != nil {
		return nil, err
	}
	w := &World{
		Client: netstack.New(cm, cd, netstack.Config{Addr: ClientIP, Name: "client", ZeroCopy: cfg.ZeroCopy}),
		Shards: make([]*netstack.Stack, cfg.Cores),
	}
	if w.Allocs, err = ukalloc.NewShards(cfg.Alloc, cfg.Cores, 64<<20, sinks); err != nil {
		return nil, err
	}
	for i := range w.Shards {
		w.Shards[i] = netstack.New(ms[i], sd, netstack.Config{
			Addr: ServerIP, Name: fmt.Sprintf("server%d", i), ZeroCopy: cfg.ZeroCopy,
			RxQueue: i, TxQueue: i,
		})
		// RSS steers ARP to queue 0 only; the other shards learn the
		// client's address from the shared neighbor table.
		if i > 0 {
			w.Shards[i].SeedARP(ClientIP, cd.HWAddr())
		}
	}
	return w, nil
}

// Ports picks conns client source ports such that the RSS hash of
// (ClientIP, ServerIP, port, dstPort, proto) spreads them evenly over
// the server's queues — the benchmark-side analog of a real load
// generator's SO_REUSEPORT + connect() spraying until the flows spread.
// They come interleaved [q0 q1 ... qN q0 q1 ...], so connection i lands
// on queue i%queues.
func Ports(dstPort uint16, proto byte, queues, conns int) []uint16 {
	src, dst := binary.BigEndian.Uint32(ClientIP[:]), binary.BigEndian.Uint32(ServerIP[:])
	count := (conns + queues - 1) / queues
	perQueue := make([][]uint16, queues)
	for p, have := uint16(40000), 0; have < queues*count && p != 0; p++ {
		q := uknetdev.RSSQueue(src, dst, p, dstPort, proto, queues)
		if len(perQueue[q]) < count {
			perQueue[q] = append(perQueue[q], p)
			have++
		}
	}
	out := make([]uint16, 0, queues*count)
	for i := 0; i < count; i++ {
		for q := 0; q < queues; q++ {
			out = append(out, perQueue[q][i])
		}
	}
	return out[:conns]
}

// Pump polls client, every core (stack, app, stack), client again and
// the generator until a whole round moves nothing, and returns the
// requests completed. This order is the calibration: netstack.Pump
// skips quiescent stacks and flushes owed kicks at the end, which
// charges differently, so the world does not route through it.
func (w *World) Pump(gen Generator) int {
	done := 0
	for {
		moved := w.Client.Poll()
		for i, s := range w.Shards {
			moved += s.Poll()
			w.Apps[i].Poll()
			moved += s.Poll()
		}
		moved += w.Client.Poll()
		n := gen.Collect()
		done += n
		moved += n
		if moved == 0 {
			return done
		}
	}
}

// stall jumps every clock past the RTO: idle time, not server work.
func (w *World) stall() {
	w.Client.Machine().Charge(rtoAdvance)
	for _, s := range w.Shards {
		s.Machine().Charge(rtoAdvance)
	}
}

// Connect pumps until gen's connections are established.
func (w *World) Connect(gen Generator) error {
	for stalls := 0; ; stalls++ {
		w.Pump(gen)
		if gen.Ready() {
			return nil
		}
		if stalls == maxStalls {
			return fmt.Errorf("closedloop: load generator not connected")
		}
		w.stall()
	}
}

// Run drives fire/pump rounds at the given pipeline depth until gen
// completes reqs more requests, and returns requests per second of the
// busiest core: Hz over its cycles per request, retransmission-timeout
// idle gaps excluded.
func (w *World) Run(gen Generator, depth, reqs int) (float64, error) {
	starts := make([]uint64, len(w.Shards))
	for i, s := range w.Shards {
		starts[i] = s.Machine().CPU.Cycles()
	}
	var idle uint64
	done, stalls := 0, 0
	for done < reqs {
		gen.Fire(depth)
		if n := w.Pump(gen); n > 0 {
			done, stalls = done+n, 0
			continue
		}
		// Residual packet loss: let the retransmission timers fire, and
		// keep the gap out of every core's account.
		if stalls++; stalls > maxStalls {
			return 0, fmt.Errorf("closedloop: stalled at %d of %d requests", done, reqs)
		}
		w.stall()
		idle += rtoAdvance
	}
	var busiest uint64
	for i, s := range w.Shards {
		busiest = max(busiest, s.Machine().CPU.Cycles()-starts[i]-idle)
	}
	return float64(w.Shards[0].Machine().CPU.Hz) / (float64(busiest) / float64(done)), nil
}
