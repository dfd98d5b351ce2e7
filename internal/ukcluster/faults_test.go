package ukcluster

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// faultTestConfig is the shared shape for fault tests: six hosts, two
// serving from the start, snapshot handoff priced like the determinism
// test uses.
func faultTestConfig(plan *ukfault.Plan) Config {
	return Config{
		Hosts: 6, Cores: 2, InitialActive: 2, MinActive: 1,
		Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
		DrainAfter: 4,
		Faults:     plan,
	}
}

// TestEmptyPlanIdentity: the fault state exists on every serve, so no
// plan, an empty plan and a plan carrying only a VM hazard (the pools'
// business, not the router's) must run the one routing pass to the same
// report — spills and drains included, with no probe ever priced and
// nothing shed. The second half is the guard against that always-present
// state growing behaviour: an overloaded fleet with no standby left and
// a ShedWater any backlog crosses must still never trip the static
// shed without a plan, while the same cluster under an armed plan does.
func TestEmptyPlanIdentity(t *testing.T) {
	serve := func(cfg Config) *Report {
		c := newTestCluster(t, cfg)
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve(faultTestConfig(nil))
	if plain.Activations == 0 || plain.Drains == 0 {
		t.Fatalf("trace never spilled and drained: activations=%d drains=%d", plain.Activations, plain.Drains)
	}
	if plain.Probes != 0 || plain.Shed != 0 {
		t.Errorf("planless serve priced %d probes and shed %d", plain.Probes, plain.Shed)
	}
	for name, plan := range map[string]*ukfault.Plan{
		"empty":          ukfault.New(123),
		"vm-hazard-only": ukfault.New(123).WithVMHazard(0.5),
	} {
		// The pools drop the plan's options: the claim is about the
		// routing pass, and a VM hazard is theirs to act on.
		cfg := faultTestConfig(plan)
		cfg.NewPool = func(host int, _ ...ukpool.Option) (*ukpool.Pool, error) {
			return ukpool.New(hostBoot(t, host), testPoolOpts()...), nil
		}
		if rep := serve(cfg); !reflect.DeepEqual(plain, rep) {
			t.Errorf("%s plan diverged from the planless serve:\n%v\n----\n%v", name, plain, rep)
		}
	}

	drowning := func(plan *ukfault.Plan) Config {
		cfg := faultTestConfig(plan)
		cfg.Hosts, cfg.InitialActive = 2, 2 // no standby: scale-out is exhausted from t=0
		cfg.ShedWater = 1e-6
		cfg.AdmitTarget = time.Hour // armed, never reached: any shed is the static one
		return cfg
	}
	if rep := serve(drowning(nil)); rep.Shed != 0 || rep.Probes != 0 {
		t.Errorf("planless overloaded serve shed %d and probed %d", rep.Shed, rep.Probes)
	}
	// A link fault that changes nothing arms the plan and nothing else.
	armed := ukfault.New(123).DegradeLink(0, 0, time.Nanosecond, 0, 0)
	if rep := serve(drowning(armed)); rep.Shed == 0 || rep.Probes == 0 {
		t.Errorf("armed overloaded serve shed %d and probed %d: the guard above proves nothing", rep.Shed, rep.Probes)
	}
}

// TestFailoverDeterminism: the full fault engine — crash, detection,
// retries, replacement activation, link faults, VM hazard — reproduces
// bit-for-bit across runs with the same seed and plan.
func TestFailoverDeterminism(t *testing.T) {
	run := func() *Report {
		plan := ukfault.New(31).
			CrashHost(1, 250*time.Millisecond).
			DegradeLink(0, 300*time.Millisecond, 400*time.Millisecond, 20*time.Microsecond, 0.01).
			WithVMHazard(1e-3)
		c := newTestCluster(t, faultTestConfig(plan))
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical fault runs diverged:\n%v\n----\n%v", a, b)
	}
	if a.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", a.Crashes)
	}
	if a.Retried == 0 {
		t.Error("crash at peak never lost a forward to the retry path")
	}
	if a.Pool.Crashes == 0 {
		t.Error("VM hazard never crashed an instance")
	}
	if a.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", a.Dropped())
	}
}

// TestSlowPlanSlowsThePool: a plan's slow host reaches that host's pool
// through the cluster alone — NewPool forwards the options it is
// handed and derives nothing from the plan. Round-robin splits the
// trace evenly over two static hosts, so host 1, four times slower for
// the whole trace, is busy about four times as long as host 0.
func TestSlowPlanSlowsThePool(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 2, Policy: RoundRobin,
		Faults: ukfault.New(7).Slow(1, 0, 0, 4)})
	defer c.Close()
	rep, err := c.Serve(ukpool.NewPoisson(11, 20_000, 4000, 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerHost) != 2 {
		t.Fatalf("%d host rows, want 2", len(rep.PerHost))
	}
	fast, slow := rep.PerHost[0], rep.PerHost[1]
	if fast.Requests != slow.Requests {
		t.Fatalf("round-robin split %d/%d, want even", fast.Requests, slow.Requests)
	}
	if float64(slow.Busy) < 3.5*float64(fast.Busy) {
		t.Errorf("slowed host busy %v, host 0 %v: want >= 3.5x", slow.Busy, fast.Busy)
	}
}

// TestDetectTime pins crash detection to the probe schedule: the first
// round after the crash goes unanswered, one more confirms, and the
// last probe waits four link round trips — (floor(at/5ms)+1)*5ms + 5ms
// + 4*RTT, whatever the crash's phase within a round.
func TestDetectTime(t *testing.T) {
	ms, us := time.Millisecond, time.Microsecond
	for _, tc := range []struct {
		rtt, at, want time.Duration
	}{
		{0, 12 * ms, 15*ms + 5*ms + 4*40*us},          // mid-round, default 40µs RTT
		{0, 10 * ms, 15*ms + 5*ms + 4*40*us},          // on a probe boundary
		{200 * us, 12 * ms, 15*ms + 5*ms + 4*200*us},  // mid-round, slow link
		{200 * us, 10 * ms, 15*ms + 5*ms + 4*200*us},  // boundary, slow link
		{200 * us, 2500 * us, 5*ms + 5*ms + 4*200*us}, // inside the first round
	} {
		c := newTestCluster(t, Config{Hosts: 2, Link: Link{RTT: tc.rtt}})
		if got := c.detectTime(tc.at); got != tc.want {
			t.Errorf("rtt %v, crash at %v: detected at %v, want %v", tc.rtt, tc.at, got, tc.want)
		}
		c.Close()
	}
}

// TestCrashFailover: losing a serving host must be detected from the
// probe schedule, replace itself from standby, mark the dead host's
// rows, and keep every request accounted. The crash lands before the
// flash crowd so standbys are still available for the replacement.
func TestCrashFailover(t *testing.T) {
	plan := ukfault.New(7).CrashHost(1, 150*time.Millisecond)
	cfg := faultTestConfig(plan)
	cfg.MinActive = 2 // keep host 1 serving until the crash takes it
	c := newTestCluster(t, cfg)
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if rep.Replacements == 0 {
		t.Error("detection never activated a replacement from standby")
	}
	if rep.Probes == 0 {
		t.Error("failure detection ran without a single priced probe")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	crashedRows := 0
	for _, h := range rep.PerHost {
		if h.Crashed {
			crashedRows++
			if h.Host != 1 {
				t.Errorf("host %d marked crashed, plan killed host 1", h.Host)
			}
		}
	}
	if crashedRows == 0 {
		t.Error("no per-host row marked crashed")
	}
	if g := rep.Goodput(); g < 0.95 {
		t.Errorf("goodput %.4f collapsed — failover not absorbing the crash", g)
	}
}

// TestCrashDuringHandoff: a host that fail-stops while its activation
// handoff is still in flight must not wedge the serve — the wreck is
// empty or tiny, a replacement takes over, and nothing is lost
// silently. A punishingly slow link keeps the handoff window open for
// hundreds of milliseconds so the crash is guaranteed to land inside
// it.
func TestCrashDuringHandoff(t *testing.T) {
	run := func() *Report {
		plan := ukfault.New(17).CrashHost(2, 260*time.Millisecond)
		cfg := faultTestConfig(plan)
		cfg.Link = Link{BytesPerSec: 4 << 20, RTT: 200 * time.Microsecond}
		c := newTestCluster(t, cfg)
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	if other := run(); !reflect.DeepEqual(rep, other) {
		t.Error("crash-during-handoff run is not deterministic")
	}
}

// TestRejoinServesAgain: a crashed host that rejoins comes back as a
// cold standby; only the dead window between crash and rejoin swallows
// forwards.
func TestRejoinServesAgain(t *testing.T) {
	plan := ukfault.New(19).CrashHostRejoin(1, 250*time.Millisecond, 100*time.Millisecond)
	c := newTestCluster(t, faultTestConfig(plan))
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", rep.Rejoins)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestFloorSurvivesCrashes: crash every host but one under light load —
// the autoscaler must never drain the last healthy host, and the serve
// must still account for everything.
func TestFloorSurvivesCrashes(t *testing.T) {
	plan := ukfault.New(23).
		CrashHost(1, 50*time.Millisecond).
		CrashHost(2, 60*time.Millisecond)
	c := newTestCluster(t, Config{
		Hosts: 3, Cores: 2, InitialActive: 3, MinActive: 1,
		Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
		DrainAfter: 2,
		Faults:     plan,
	})
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", rep.Crashes)
	}
	if rep.ActiveEnd < 1 {
		t.Errorf("active end = %d — the floor drained the last healthy host", rep.ActiveEnd)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	// Host 0 is the survivor; it must have served the bulk.
	var host0 int
	for _, h := range rep.PerHost {
		if h.Host == 0 && !h.Crashed {
			host0 = h.Requests
		}
	}
	if host0 == 0 {
		t.Error("surviving host 0 served nothing")
	}
}

// TestPartitionRetries: a front-door partition makes every forward to
// the host die of reply timeout and re-route; the host serves nothing
// while cut off, yet nothing is dropped.
func TestPartitionRetries(t *testing.T) {
	plan := ukfault.New(29).PartitionHost(1, 100*time.Millisecond, 200*time.Millisecond)
	c := newTestCluster(t, Config{
		Hosts: 2, Cores: 2, InitialActive: 2, MinActive: 2,
		Policy: RoundRobin,
		Faults: plan,
	})
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried == 0 {
		t.Error("partition never forced a retry")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestRetryBudgetExhaustion: with a hard per-trace retry budget, losses
// beyond it fail instead of retrying — bounded, explicit, counted.
func TestRetryBudgetExhaustion(t *testing.T) {
	plan := ukfault.New(37).PartitionHost(1, 100*time.Millisecond, 400*time.Millisecond)
	cfg := Config{
		Hosts: 2, Cores: 2, InitialActive: 2, MinActive: 2,
		Policy:      RoundRobin,
		Faults:      plan,
		RetryBudget: 50,
	}
	c := newTestCluster(t, cfg)
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried > 50 {
		t.Errorf("retried %d forwards, budget was 50", rep.Retried)
	}
	if rep.Failed == 0 {
		t.Error("budget exhaustion never failed a forward")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestClusterCloseIdempotentAndServeErrors: Close twice is safe and a
// closed cluster refuses to serve instead of panicking.
func TestClusterCloseIdempotentAndServeErrors(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 2})
	c.Close()
	c.Close()
	if _, err := c.Serve(flashTrace(1_000)); err == nil {
		t.Error("Serve on closed cluster returned nil error")
	}
}

// TestPlanValidation: an out-of-range crash host must be rejected at
// construction, not discovered mid-serve.
func TestPlanValidation(t *testing.T) {
	cfg := Config{Hosts: 2, Faults: ukfault.New(1).CrashHost(5, time.Millisecond)}
	cfg.NewPool = func(host int, _ ...ukpool.Option) (*ukpool.Pool, error) {
		return ukpool.New(hostBoot(t, host), testPoolOpts()...), nil
	}
	if _, err := New(cfg); err == nil {
		t.Error("plan crashing host 5 of a 2-host cluster passed validation")
	}
}
