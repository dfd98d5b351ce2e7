package ukcluster

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// overloadTestConfig pins one instance per core on two always-active
// hosts (~85K req/s fleet capacity at 47us/request), so an open-loop
// trace above that genuinely overloads the cluster.
func overloadTestConfig(t testing.TB) Config {
	return Config{
		Hosts: 2, Cores: 2, InitialActive: 2, MinActive: 2,
		Policy:     LeastLoaded,
		EstService: 47 * time.Microsecond,
		EvalEvery:  2 * time.Millisecond,
		NewPool: func(host int, faults func(*ukpool.Config)) (*ukpool.Pool, error) {
			return hostPool(t, host, withFaults(ukpool.Config{
				MinWarm: 2, MaxInstances: 2, NoAutoscale: true,
				SyscallsPerRequest: 4, AppCycles: 170_000}, faults))
		},
	}
}

func overloadTestTrace(n int, rate, mix float64, deadline time.Duration) *ukpool.Arrivals {
	w := ukpool.NewOverload(53, rate, n, 256).Mix(mix)
	if deadline > 0 {
		w.Deadlines(deadline, 10*deadline)
	}
	return w
}

// TestArmedIdleOverloadIdentity: overload control that is armed but
// never triggers — a deadline nobody misses, an admission target nobody
// reaches, a throttle bucket never drained — must reproduce the unarmed
// serve byte-for-byte.
func TestArmedIdleOverloadIdentity(t *testing.T) {
	serve := func(arm func(*Config)) *Report {
		cfg := overloadTestConfig(t)
		if arm != nil {
			arm(&cfg)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(overloadTestTrace(30_000, 40_000, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve(nil)
	armed := serve(func(cfg *Config) {
		cfg.DefaultDeadline = time.Hour
		cfg.AdmitTarget = time.Hour
		cfg.RetryThrottleRatio = 0.1
	})
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("armed-but-idle overload control diverged from unarmed serve:\n%v\n----\n%v", plain, armed)
	}
	if plain.Expired != 0 || plain.Shed != 0 || plain.Throttled != 0 {
		t.Errorf("underloaded serve recorded expired=%d shed=%d throttled=%d",
			plain.Expired, plain.Shed, plain.Throttled)
	}
}

// TestOverloadControlDeterministic: the whole overload stack — door
// expiry, adaptive admission, priority staging, retry throttle under a
// partition — reproduces bit-for-bit across runs.
func TestOverloadControlDeterministic(t *testing.T) {
	run := func() *Report {
		cfg := overloadTestConfig(t)
		cfg.DefaultDeadline = 10 * time.Millisecond
		cfg.AdmitTarget = time.Millisecond
		cfg.RetryThrottleRatio = 0.05
		cfg.Faults = ukfault.New(17).PartitionHost(1, 100*time.Millisecond, 200*time.Millisecond)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(overloadTestTrace(60_000, 200_000, 0.3, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical overload runs diverged:\n%v\n----\n%v", a, b)
	}
	if a.Shed == 0 {
		t.Error("2.4x overload never shed through the admission controller")
	}
	if a.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", a.Dropped())
	}
}

// TestAdmissionStagedByClass: under sustained overload the proportional
// controller sheds batch traffic from the target up but interactive
// traffic only past three times the target — on a 30/70 mix batch must
// absorb the bulk of the shedding.
func TestAdmissionStagedByClass(t *testing.T) {
	cfg := overloadTestConfig(t)
	cfg.AdmitTarget = time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Serve(overloadTestTrace(100_000, 200_000, 0.3, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	intShed := rep.Shed - rep.ShedBatch
	if rep.ShedBatch == 0 {
		t.Fatal("overload shed no batch traffic")
	}
	if rep.ShedBatch <= intShed {
		t.Errorf("shedding not staged: batch=%d <= interactive=%d", rep.ShedBatch, intShed)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestRetryThrottleSuppressesStorm: a partitioned host under
// least-loaded routing ignites a retry storm (lost forwards never
// inflate the dead host's backlog, so retries keep feeding it). The
// token bucket must cut aggregate retries by an order of magnitude and
// account every cut as Throttled + Failed.
func TestRetryThrottleSuppressesStorm(t *testing.T) {
	serve := func(ratio float64) *Report {
		cfg := overloadTestConfig(t)
		cfg.RetryThrottleRatio = ratio
		cfg.Faults = ukfault.New(17).PartitionHost(1, 100*time.Millisecond, 600*time.Millisecond)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(overloadTestTrace(60_000, 40_000, 1, 20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Dropped() != 0 {
			t.Fatalf("%d requests unaccounted for", rep.Dropped())
		}
		return rep
	}
	storm := serve(0)
	throttled := serve(0.05)
	if storm.Retried == 0 {
		t.Fatal("partition under least-loaded never stormed")
	}
	if storm.Throttled != 0 {
		t.Errorf("unthrottled run counted %d throttled", storm.Throttled)
	}
	if throttled.Throttled == 0 {
		t.Fatal("dry token bucket never throttled a retry")
	}
	if throttled.Retried >= storm.Retried/2 {
		t.Errorf("throttle ineffective: %d retries vs %d unthrottled", throttled.Retried, storm.Retried)
	}
}

// TestRetryBackoffShiftCap: regression for the unbounded
// RetryBackoff << Attempt shift. A tiny base backoff and a high retry
// limit push attempts past 63; uncapped, the shifted backoff overflows
// int64 and schedules retries at negative timestamps. Capped, the serve
// terminates with a sane virtual makespan and full accounting.
func TestRetryBackoffShiftCap(t *testing.T) {
	cfg := overloadTestConfig(t)
	cfg.RetryLimit = 80
	cfg.RetryBackoff = time.Nanosecond
	// Partition host 1 for most of the trace: least-loaded keeps
	// routing retries at the silent host, so attempts climb to the
	// limit within the window.
	cfg.Faults = ukfault.New(17).PartitionHost(1, 50*time.Millisecond, 2*time.Second)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Serve(overloadTestTrace(40_000, 40_000, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("80-attempt retry chains inside a 1.95s partition never exhausted the limit")
	}
	if rep.Pool.Duration <= 0 || rep.Pool.Duration > time.Hour {
		t.Errorf("virtual makespan %v insane — backoff shift overflowed", rep.Pool.Duration)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestDoorExpiryChargesCheaply: requests whose deadline passes while
// queued at the front door are answered with a priced 504 — counted
// Expired at the router, never forwarded, never serviced — and the
// deadline also rides to the host pool, which expires what the door
// could not foresee.
func TestDoorExpiryEndToEnd(t *testing.T) {
	cfg := overloadTestConfig(t)
	cfg.DefaultDeadline = 2 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No workload-stamped deadlines: DefaultDeadline alone must arm the
	// end-to-end path.
	rep, err := c.Serve(overloadTestTrace(100_000, 200_000, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired+rep.Pool.Expired == 0 {
		t.Fatal("2.4x overload with a 2ms deadline expired nothing")
	}
	if rep.Pool.Expired == 0 {
		t.Error("deadline never expired a request at the host queue")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	// Whatever completed was dispatched while live.
	if frac := rep.Pool.Latency.FractionBelow(8 * time.Millisecond); frac < 1 {
		t.Errorf("%.4f of completions blew past deadline + service bound", 1-frac)
	}
}
