package closedloop_test

import (
	"encoding/binary"
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/apps/httpd"
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

// TestWorldRunTwiceIdentical: the same config run twice leaves the same
// cycle count on every machine and reports the same rate, on the
// calibrated one-core topology and on four cores.
func TestWorldRunTwiceIdentical(t *testing.T) {
	for _, cores := range []int{1, 4} {
		run := func() (rate float64, cycles []uint64) {
			w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: cores, Alloc: "tlsf"})
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range w.Shards {
				srv, err := httpd.New(s, w.Allocs.Shard(i), 80, nil)
				if err != nil {
					t.Fatal(err)
				}
				w.Apps = append(w.Apps, srv)
			}
			gen := httpd.NewLoadGenPorts(w.Client, closedloop.ServerAddr(80), closedloop.Ports(80, netstack.ProtoTCP, cores, 16))
			if err := w.Connect(gen); err != nil {
				t.Fatal(err)
			}
			if rate, err = w.Run(gen, 1, 800); err != nil {
				t.Fatal(err)
			}
			cycles = append(cycles, w.Client.Machine().CPU.Cycles())
			for _, s := range w.Shards {
				if s.Machine().CPU.Cycles() == 0 {
					t.Fatalf("cores %d: a core served nothing", cores)
				}
				cycles = append(cycles, s.Machine().CPU.Cycles())
			}
			return rate, cycles
		}
		r1, c1 := run()
		r2, c2 := run()
		if r1 != r2 {
			t.Errorf("cores %d: rate %v then %v", cores, r1, r2)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Errorf("cores %d: machine %d at %d cycles, then %d", cores, i, c1[i], c2[i])
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
	w := &closedloop.World{Client: client, Shards: []*netstack.Stack{server}, Apps: []closedloop.App{srv}}
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
		rate, err := w.Run(gen, 1, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rate, w, gen
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
