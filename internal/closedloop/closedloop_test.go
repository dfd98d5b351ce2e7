package closedloop_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/apps/udpkv"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

// TestPortsSpreadEvenly: connection i lands on queue i%queues, every
// port is distinct, and a count that is no multiple of the queue count
// is cut to length.
func TestPortsSpreadEvenly(t *testing.T) {
	src, dst := binary.BigEndian.Uint32(closedloop.ClientIP[:]), binary.BigEndian.Uint32(closedloop.ServerIP[:])
	for _, queues := range []int{1, 2, 4, 8} {
		for _, conns := range []int{queues, 30, 32} {
			ports := closedloop.Ports(80, netstack.ProtoTCP, queues, conns)
			if len(ports) != conns {
				t.Fatalf("queues %d: %d ports, want %d", queues, len(ports), conns)
			}
			seen := map[uint16]bool{}
			for i, p := range ports {
				if seen[p] {
					t.Fatalf("queues %d: port %d repeats", queues, p)
				}
				seen[p] = true
				if q := uknetdev.RSSQueue(src, dst, p, 80, netstack.ProtoTCP, queues); q != i%queues {
					t.Fatalf("queues %d: connection %d (port %d) steers to queue %d, want %d", queues, i, p, q, i%queues)
				}
			}
		}
	}
}

// servers are the kinds of server core a world runs, each with its
// generator and the pipeline depth it is measured at.
var servers = []struct {
	name  string
	build func(t *testing.T, cores int) (*closedloop.World, closedloop.Generator, int)
}{
	{"httpd", func(t *testing.T, cores int) (*closedloop.World, closedloop.Generator, int) {
		w := newWorld(t, cores)
		for i, s := range w.Shards {
			srv, err := httpd.New(s, w.Allocs.Shard(i), 80, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.Apps = append(w.Apps, srv)
		}
		return w, httpd.NewLoadGenPorts(w.Client, closedloop.ServerAddr(80), closedloop.Ports(80, netstack.ProtoTCP, cores, 16)), 1
	}},
	{"udpkv-socket", func(t *testing.T, cores int) (*closedloop.World, closedloop.Generator, int) {
		w, store := newWorld(t, cores), udpkv.NewStore()
		for _, s := range w.Shards {
			srv, err := udpkv.NewSocketServer(s, 5000, store)
			if err != nil {
				t.Fatal(err)
			}
			w.Apps = append(w.Apps, srv)
		}
		return w, udpkvLoad(t, w, cores), 32 / cores
	}},
	{"udpkv-raw", func(t *testing.T, cores int) (*closedloop.World, closedloop.Generator, int) {
		// The raw server polls its device queue itself: no core has a
		// netstack shard.
		cm, w, store := sim.NewMachine(), &closedloop.World{Cores: make([]*sim.Machine, cores)}, udpkv.NewStore()
		for i := range w.Cores {
			w.Cores[i] = sim.NewMachine()
		}
		cd, sd, err := uknetdev.NewMultiQueuePair(cm, w.Cores, uknetdev.VhostUser, uknetdev.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		w.Client = netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP})
		for i, m := range w.Cores {
			w.Apps = append(w.Apps, udpkv.NewRawServerQueue(sd, i, m, closedloop.ServerIP, 5000, store))
		}
		return w, udpkvLoad(t, w, cores), 32 / cores
	}},
}

func newWorld(t *testing.T, cores int) *closedloop.World {
	t.Helper()
	w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: cores, Alloc: "tlsf"})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// udpkvLoad is one udpkv client per core, RSS-pinned, with budget for
// one measured run.
func udpkvLoad(t *testing.T, w *closedloop.World, cores int) *udpkv.Load {
	t.Helper()
	load, err := udpkv.NewLoad(w.Client, closedloop.ServerAddr(5000), closedloop.Ports(5000, netstack.ProtoUDP, cores, cores), "k", []byte("v"), runReqs)
	if err != nil {
		t.Fatal(err)
	}
	return load
}

// runReqs is the requests each measured run asks for.
const runReqs = 800

// busy is every core's clock less its idle time.
func busy(cores []*sim.Machine) (sum uint64) {
	for _, m := range cores {
		sum += m.CPU.Cycles() - m.Ledger()[sim.LayerIdle]
	}
	return sum
}

// TestWorldRunTwiceIdentical: for every kind of server, the same config
// run twice leaves the same cycle count on every machine and reports
// the same Measure, on the calibrated one-core topology and on four
// cores. The Measure's busy layers hold every core's busy cycles, and
// at one core they are Hz over the rate per completed request.
func TestWorldRunTwiceIdentical(t *testing.T) {
	for _, srv := range servers {
		for _, cores := range []int{1, 4} {
			run := func() (m closedloop.Measure, cycles []uint64) {
				w, gen, depth := srv.build(t, cores)
				if err := w.Connect(gen); err != nil {
					t.Fatal(err)
				}
				before := busy(w.Cores)
				m, err := w.Run(gen, depth, runReqs)
				if err != nil {
					t.Fatal(err)
				}
				var layers uint64
				for l, c := range m.Layers {
					if sim.Layer(l) != sim.LayerIdle {
						layers += c
					}
				}
				if spent := busy(w.Cores) - before; layers != spent {
					t.Errorf("%s on %d cores: busy layers sum to %d cycles, the cores spent %d", srv.name, cores, layers, spent)
				}
				if cores == 1 {
					perReq, hzOverRate := fmt.Sprintf("%.2f", float64(layers)/float64(m.Done)), fmt.Sprintf("%.2f", float64(w.Cores[0].CPU.Hz)/m.Rate)
					if perReq != hzOverRate {
						t.Errorf("%s: busy %s cycles/request, Hz/rate %s", srv.name, perReq, hzOverRate)
					}
				}
				cycles = append(cycles, w.Client.Machine().CPU.Cycles())
				for _, c := range w.Cores {
					if c.CPU.Cycles() == 0 {
						t.Fatalf("%s on %d cores: a core served nothing", srv.name, cores)
					}
					cycles = append(cycles, c.CPU.Cycles())
				}
				return m, cycles
			}
			m1, c1 := run()
			m2, c2 := run()
			if m1 != m2 {
				t.Errorf("%s on %d cores: %+v then %+v", srv.name, cores, m1, m2)
			}
			for i := range c1 {
				if c1[i] != c2[i] {
					t.Errorf("%s on %d cores: machine %d at %d cycles, then %d", srv.name, cores, i, c1[i], c2[i])
				}
			}
		}
	}
}

// lossyDev is a server device that loses frames on receive: the ones
// drop picks, by arrival index and bytes, never reach the stack.
type lossyDev struct {
	*uknetdev.VirtioNet
	seen int
	drop func(n int, frame []byte) bool
}

func (d *lossyDev) RxBurstZC(q int, pkts []*uknetdev.Netbuf) (int, bool, error) {
	n, more, err := d.VirtioNet.RxBurstZC(q, pkts)
	kept := 0
	for _, nb := range pkts[:n] {
		d.seen++
		if d.drop(d.seen, nb.Bytes()) {
			nb.Release()
			continue
		}
		pkts[kept] = nb
		kept++
	}
	return kept, more, err
}

// handWired builds the one-core world the way the examples do, with the
// server stack on a lossy device and a one-connection generator, so a
// lost segment stops the loop until its retransmission timer fires.
func handWired(t *testing.T, drop func(n int, frame []byte) bool) (*closedloop.World, *httpd.LoadGen) {
	t.Helper()
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	client := netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP})
	server := netstack.New(sm, &lossyDev{VirtioNet: sd, drop: drop}, netstack.Config{Addr: closedloop.ServerIP})
	a, err := ukalloc.NewInitialized("tlsf", sm, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := httpd.New(server, a, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &closedloop.World{Client: client, Cores: []*sim.Machine{sm}, Shards: []*netstack.Stack{server}, Apps: []closedloop.App{srv}}
	return w, httpd.NewLoadGen(client, closedloop.ServerAddr(80), 1)
}

// isRequest tells a frame carrying an HTTP request from a bare
// SYN/ACK (54 bytes of headers, 58 with the MSS option).
func isRequest(frame []byte) bool { return len(frame) > 66 }

// TestLostSegmentIsIdleNotWork: one request frame lost at the server.
// Clocks only advance with work, so without the RTO advance the loop
// would spin; with it every request completes, and because the gap is
// idle the rate is the loss-free rate less only the retransmit work.
func TestLostSegmentIsIdleNotWork(t *testing.T) {
	const reqs = 300
	run := func(drop func(int, []byte) bool) (float64, *closedloop.World, *httpd.LoadGen) {
		w, gen := handWired(t, drop)
		if err := w.Connect(gen); err != nil {
			t.Fatal(err)
		}
		m, err := w.Run(gen, 1, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m.Rate, w, gen
	}
	clean, _, _ := run(func(int, []byte) bool { return false })
	requests := 0
	lossy, w, gen := run(func(_ int, frame []byte) bool {
		if isRequest(frame) {
			requests++
		}
		return isRequest(frame) && requests == 100
	})
	if gen.Completed != reqs {
		t.Fatalf("completed %d of %d requests", gen.Completed, reqs)
	}
	if got := w.Client.Stats().TCPRetransmits; got != 1 {
		t.Fatalf("client retransmitted %d segments, want 1", got)
	}
	if lossy >= clean || lossy < 0.99*clean {
		t.Fatalf("rate with one loss %.1f, loss-free %.1f: want just below (the RTO gap is idle, the retransmit is work)", lossy, clean)
	}
}

// TestDeadServerReturns: when nothing can complete any more, Connect and
// Run report it instead of advancing the clocks forever.
func TestDeadServerReturns(t *testing.T) {
	w, gen := handWired(t, func(int, []byte) bool { return true })
	if err := w.Connect(gen); err == nil {
		t.Error("Connect to a server that hears nothing returned nil")
	}
	w, gen = handWired(t, func(_ int, frame []byte) bool { return isRequest(frame) })
	if err := w.Connect(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(gen, 1, 10); err == nil {
		t.Error("Run against a server that hears no request returned nil")
	}
}
