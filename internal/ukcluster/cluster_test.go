package ukcluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukplat"
	"unikraft/internal/ukpool"
)

// hostBoot builds the BootFunc for one host: its own boot context (own
// arena) and host-distinct deterministic instance seeds — the same
// derivation the public Runtime layer uses.
func hostBoot(t testing.TB, hostID int) ukpool.BootFunc {
	t.Helper()
	ctx, err := ukboot.NewContext(ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: 1 << 20,
		Allocator:  "tlsf",
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(hostID)*0xA24BAED4963EE407 + 1
	return func(id int) (*ukboot.VM, error) {
		return ctx.Boot(sim.NewMachineWithSeed(seed + uint64(id)*0x9E3779B97F4A7C15))
	}
}

func testPoolOpts() []ukpool.Option {
	return []ukpool.Option{
		ukpool.WithWarm(4), ukpool.WithMaxInstances(64), ukpool.WithColdBurst(4),
	}
}

// newTestCluster builds a cluster whose hosts each get their own boot
// context and seeds, with cfg's zero fields defaulted by New.
func newTestCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.NewPool == nil {
		cfg.NewPool = func(host int, opts ...ukpool.Option) (*ukpool.Pool, error) {
			return ukpool.New(hostBoot(t, host), append(testPoolOpts(), opts...)...), nil
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func flashTrace(n int) ukpool.Workload {
	return ukpool.NewDiurnal(11, 2000, 6000, 2*time.Second,
		200*time.Millisecond, 300*time.Millisecond, 120_000, 64, n, 256)
}

// TestSingleHostIdentity: a one-host single-core cluster must produce a
// Pool section byte-identical to serving the same trace through a
// plain standalone pool — the front door is bypassed entirely, so the
// cluster layer costs nothing when you don't cluster.
func TestSingleHostIdentity(t *testing.T) {
	solo := ukpool.New(hostBoot(t, 0), testPoolOpts()...)
	defer solo.Close()
	want, err := solo.Serve(flashTrace(20_000))
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, Config{Hosts: 1})
	defer c.Close()
	rep, err := c.Serve(flashTrace(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, rep.Pool) {
		t.Errorf("1-host cluster diverged from plain Pool.Serve\npool:    %v\ncluster: %v", want, &rep.Pool)
	}
	if rep.Dropped() != 0 {
		t.Errorf("dropped %d requests", rep.Dropped())
	}
}

// TestClusterDeterminism: the full engine — multi-host, multi-core,
// autoscaling, handoff, drains — reproduces bit-for-bit across runs.
func TestClusterDeterminism(t *testing.T) {
	run := func() *Report {
		c := newTestCluster(t, Config{
			Hosts: 6, Cores: 2, InitialActive: 2, MinActive: 1,
			Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
			DrainAfter: 4,
		})
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical cluster runs diverged:\n%v\n----\n%v", a, b)
	}
	if a.Activations == 0 {
		t.Error("flash crowd never spilled to a standby host")
	}
	if a.Dropped() != 0 {
		t.Errorf("dropped %d requests", a.Dropped())
	}
}

// TestRoundRobinSpread: a static fleet under round-robin gets an even
// request split.
func TestRoundRobinSpread(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 4, MinActive: 4, Policy: RoundRobin})
	defer c.Close()
	rep, err := c.Serve(ukpool.NewPoisson(3, 20_000, 8000, 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerHost) != 4 {
		t.Fatalf("want 4 serving hosts, got %d", len(rep.PerHost))
	}
	for _, h := range rep.PerHost {
		if h.Requests != 2000 {
			t.Errorf("host %d served %d requests, want 2000", h.Host, h.Requests)
		}
	}
}

// TestConsistentHashAffinity: with session keys and a static fleet,
// every session sticks to exactly one host. Each session is served as
// a trace of its own, so the per-host rows show where its requests
// went; the ring depends only on the serving set, which a static fleet
// keeps across serves.
func TestConsistentHashAffinity(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 4, MinActive: 4, Policy: ConsistentHash})
	defer c.Close()

	const sessions, perSession = 32, 200
	hostsUsed := map[int]bool{}
	for key := uint64(1); key <= sessions; key++ {
		reqs := make([]ukpool.Request, perSession)
		for i := range reqs {
			reqs[i] = ukpool.Request{Arrival: time.Duration(i+1) * 50 * time.Microsecond, Bytes: 128, Key: key}
		}
		rep, err := c.Serve(ukpool.NewTrace(reqs))
		if err != nil {
			t.Fatal(err)
		}
		owner := -1
		for _, h := range rep.PerHost {
			if h.Requests == 0 {
				continue
			}
			if owner >= 0 {
				t.Fatalf("session %d split across hosts %d and %d", key, owner, h.Host)
			}
			owner = h.Host
		}
		if owner < 0 || rep.Pool.Requests != perSession {
			t.Fatalf("session %d: %d of %d requests served, owner %d", key, rep.Pool.Requests, perSession, owner)
		}
		hostsUsed[owner] = true
	}
	if len(hostsUsed) < 2 {
		t.Errorf("ring put all %d sessions on one host", sessions)
	}
}

// TestScaleDownFloor: aggressive drains stop at MinActive and never
// touch host 0 — the template holder every handoff is seeded from.
func TestScaleDownFloor(t *testing.T) {
	c := newTestCluster(t, Config{
		Hosts: 4, InitialActive: 4, MinActive: 2,
		LowWater: 4, HighWater: 1 << 20, // drain-happy, never spill
		DrainAfter: 2,
	})
	defer c.Close()
	// A long quiet trace: backlog sits at ~0, every window votes drain.
	rep, err := c.Serve(ukpool.NewPoisson(9, 500, 2000, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drains != 2 {
		t.Errorf("drains = %d, want exactly 2 (4 hosts down to floor 2)", rep.Drains)
	}
	if rep.ActiveEnd != 2 {
		t.Errorf("ActiveEnd = %d, want MinActive floor 2", rep.ActiveEnd)
	}
	for _, h := range rep.PerHost {
		if h.Host == 0 && h.Drained {
			t.Error("template holder (host 0) was drained")
		}
	}
	if rep.Dropped() != 0 {
		t.Errorf("dropped %d requests", rep.Dropped())
	}
}

// TestDrainRequeue: a drain with requests still in flight on a slow
// link bounces them back through the front door — deterministically,
// with none lost and end-to-end latency still measured from the
// original arrival.
func TestDrainRequeue(t *testing.T) {
	run := func() *Report {
		c := newTestCluster(t, Config{
			Hosts: 3, InitialActive: 3, MinActive: 1,
			Policy:   RoundRobin,
			Link:     Link{RTT: 20 * time.Millisecond}, // 10ms in flight each way
			LowWater: 4, HighWater: 1 << 20,
			DrainAfter: 2,
		})
		defer c.Close()
		rep, err := c.Serve(ukpool.NewPoisson(13, 2000, 4000, 128))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run()
	if a.Drains == 0 {
		t.Fatal("quiet trace never drained a host")
	}
	if a.Requeued == 0 {
		t.Error("drain with a 10ms forward delay bounced no in-flight requests")
	}
	if a.Dropped() != 0 {
		t.Errorf("requeue lost requests: dropped %d", a.Dropped())
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Error("drain/requeue runs diverged — requeue is not deterministic")
	}
}

// TestHandoffCheaperThanRemoteCold: the same spill-heavy trace with
// snapshot-image handoff vs remote template mints — activation latency
// must drop, and the shipped bytes must be accounted.
func TestHandoffCheaperThanRemoteCold(t *testing.T) {
	serve := func(act Activation) *Report {
		c := newTestCluster(t, Config{
			Hosts: 6, InitialActive: 2, Activation: act,
		})
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Activations == 0 {
			t.Fatal("flash crowd never activated a standby host")
		}
		return rep
	}
	// The shipped image is the snapshot write-set (marked pages + heap
	// metadata), hundreds of KB — not the full guest memory.
	cold := serve(Activation{ColdBoot: 2 * time.Millisecond})
	hand := serve(Activation{Handoff: true, ImageBytes: 256 << 10, Attach: 50 * time.Microsecond})

	if hand.Handoffs != hand.Activations || hand.RemoteColdBoots != 0 {
		t.Errorf("handoff cluster minted remotely: handoffs=%d cold=%d of %d activations",
			hand.Handoffs, hand.RemoteColdBoots, hand.Activations)
	}
	if cold.RemoteColdBoots != cold.Activations || cold.Handoffs != 0 {
		t.Errorf("cold cluster handed off: handoffs=%d cold=%d", cold.Handoffs, cold.RemoteColdBoots)
	}
	if hand.Activation.Mean() >= cold.Activation.Mean() {
		t.Errorf("handoff activation (%v mean) not cheaper than remote cold boot (%v mean)",
			hand.Activation.Mean(), cold.Activation.Mean())
	}
	if want := int64(hand.Handoffs) * (256 << 10); hand.HandoffBytes != want {
		t.Errorf("HandoffBytes = %d, want %d", hand.HandoffBytes, want)
	}
}

// TestRouterIsPriced: front-door delay is never free — every routed
// request records a positive route latency (router cycles + link).
func TestRouterIsPriced(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 2})
	defer c.Close()
	rep, err := c.Serve(ukpool.NewPoisson(21, 10_000, 4000, 256))
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Route.Count) != rep.Offered {
		t.Fatalf("route histogram has %d entries for %d requests", rep.Route.Count, rep.Offered)
	}
	if rep.Route.MinV <= 0 {
		t.Errorf("min route delay %v, want > 0", rep.Route.MinV)
	}
	// End-to-end latency includes the route delay: the cluster's median
	// cannot be below the route minimum.
	if rep.Pool.Latency.Quantile(0.5) < rep.Route.MinV {
		t.Errorf("median e2e latency %v below min route delay %v — Origin accounting broken",
			rep.Pool.Latency.Quantile(0.5), rep.Route.MinV)
	}
}

// TestServeAllocsPerRequest: once its hosts are warm and its chunk free
// list has filled, a cluster serve allocates per serve, not per
// request — a routing decision reuses the front door's scratch, and
// forwards travel in recycled chunks.
func TestServeAllocsPerRequest(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 4})
	defer c.Close()
	const n = 100_000
	serve := func() {
		rep, err := c.Serve(ukpool.NewPoisson(7, 100_000, n, 256))
		if err != nil || rep.Pool.Requests != n {
			t.Fatalf("served %d of %d: %v", rep.Pool.Requests, n, err)
		}
	}
	// AllocsPerRun's warm-up call boots the fleets and fills the list.
	if per := testing.AllocsPerRun(2, serve) / n; per >= 0.05 {
		t.Errorf("%.3f allocations per request, want < 0.05", per)
	}
}

// TestServeMemoryBounded: what a serve holds between the front door and
// the host loops is the chunk free list, not the trace. The host loops
// are held at their first boot until the front door has taken every
// chunk the list will give, so the peak is reached deterministically;
// a 500K-request serve then peaks at exactly as many live chunks as a
// 50K-request one, a few per host.
func TestServeMemoryBounded(t *testing.T) {
	const hosts = 4
	limit := chunksPerHost*hosts + 1
	peak := func(n int) int {
		gate := make(chan struct{})
		c := newTestCluster(t, Config{Hosts: hosts, NewPool: func(host int, _ ...ukpool.Option) (*ukpool.Pool, error) {
			boot := hostBoot(t, host)
			return ukpool.New(func(id int) (*ukboot.VM, error) {
				<-gate
				return boot(id)
			}, testPoolOpts()...), nil
		}})
		defer c.Close()
		done := make(chan error, 1)
		go func() {
			rep, err := c.Serve(ukpool.NewPoisson(7, 100_000, n, 256))
			if err == nil && rep.Pool.Requests != n {
				err = fmt.Errorf("served %d of %d", rep.Pool.Requests, n)
			}
			done <- err
		}()
		for wait := time.Now().Add(time.Minute); c.chunks.Peak() < limit; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("n=%d: the front door took %d chunks, never the %d it may", n, c.chunks.Peak(), limit)
			}
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return c.chunks.Peak()
	}
	small, large := peak(50_000), peak(500_000)
	if small != large || large > 3*hosts {
		t.Errorf("peak live chunks %d at 50K requests, %d at 500K: want equal and at most %d", small, large, 3*hosts)
	}
}

// BenchmarkClusterServe: the streaming engine end to end — 8 hosts,
// 2 cores each, autoscaling and handoff on; the front door routes while
// the host loops serve. Tracks the control plane's real-time overhead
// and its allocation behavior.
func BenchmarkClusterServe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newTestCluster(b, Config{
			Hosts: 8, Cores: 2, InitialActive: 2,
			Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
		})
		b.StartTimer()
		rep, err := c.Serve(flashTrace(30_000))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Dropped() != 0 {
			b.Fatalf("dropped %d", rep.Dropped())
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}
