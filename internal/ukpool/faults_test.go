package ukpool

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
)

// TestCrashHazardRestartsAndRetries: under a mid-request crash hazard
// the pool charges partial work, restarts the instance by a fresh boot,
// and redispatches the request — every offered request still resolves
// to a completion or an explicit failure, and the run reproduces
// bit-for-bit.
func TestCrashHazardRestartsAndRetries(t *testing.T) {
	const offered = 50_000
	run := func() *Report {
		p := testPool(t, Config{MinWarm: 4, MaxInstances: 16,
			Faults: ukfault.VMFaults{Hazard: 0.02}, FaultSeed: 99})
		defer p.Close()
		rep, err := p.Serve(NewPoisson(7, 50_000, offered, 256))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Crashes == 0 {
		t.Fatal("2% hazard over 50K requests produced no crashes")
	}
	if rep.Retried == 0 {
		t.Error("crashes never redispatched the request")
	}
	if rep.Requests != offered {
		t.Errorf("conservation broken: %d requests counted, %d offered", rep.Requests, offered)
	}
	if got := int(rep.Latency.Count); got != rep.Completed() {
		t.Errorf("latency samples %d != completions %d", got, rep.Completed())
	}
	if other := run(); !reflect.DeepEqual(rep, other) {
		t.Errorf("two identical hazard runs diverged:\n%v\n----\n%v", rep, other)
	}
}

// TestCrashRetriesExhaust: with the hazard at 1.0 every attempt
// crashes, so every request burns its crashRetries redispatches and
// fails — none may vanish, none may complete.
func TestCrashRetriesExhaust(t *testing.T) {
	p := testPool(t, Config{MinWarm: 2, MaxInstances: 8,
		Faults: ukfault.VMFaults{Hazard: 1.0}, FaultSeed: 3, BreakerAfter: 1000})
	defer p.Close()
	rep, err := p.Serve(NewPoisson(5, 20_000, 500, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Requests || rep.Completed() != 0 {
		t.Errorf("hazard 1.0: want all %d requests failed, got failed=%d completed=%d",
			rep.Requests, rep.Failed, rep.Completed())
	}
	if rep.Retried != crashRetries*rep.Requests {
		t.Errorf("retries=%d: want %d redispatches, got %d", crashRetries, crashRetries*rep.Requests, rep.Retried)
	}
}

// TestBreakerRetiresInstance: with the breaker at one consecutive
// crash, every crash retires its instance instead of restarting it.
func TestBreakerRetiresInstance(t *testing.T) {
	p := testPool(t, Config{MinWarm: 4, MaxInstances: 32,
		Faults: ukfault.VMFaults{Hazard: 0.05}, FaultSeed: 11, BreakerAfter: 1})
	defer p.Close()
	rep, err := p.Serve(NewPoisson(9, 50_000, 20_000, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes at 5% hazard")
	}
	if rep.BreakerTrips != rep.Crashes {
		t.Errorf("breaker=1: every crash must trip it, got %d trips for %d crashes",
			rep.BreakerTrips, rep.Crashes)
	}
}

// TestCrashDrawIsShardInvariant: crash draws key on request identity,
// not serve order, so the fault-free single-shard contract stays: a
// serve with one shard is byte-identical to Serve even with a hazard
// armed.
func TestCrashDrawIsShardInvariant(t *testing.T) {
	const offered = 30_000
	serve := func(shards int) *Report {
		p := testPool(t, Config{MinWarm: 4, MaxInstances: 16,
			Faults: ukfault.VMFaults{Hazard: 0.01}, FaultSeed: 42})
		defer p.Close()
		var rep *Report
		var err error
		if shards == 0 {
			rep, err = p.Serve(NewPoisson(3, 40_000, offered, 256))
		} else {
			rep, err = p.ServeWith(NewPoisson(3, 40_000, offered, 256), ServeOpts{Shards: shards})
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq, one := serve(0), serve(1)
	if !reflect.DeepEqual(seq, one) {
		t.Errorf("1-shard serve diverged from Serve under hazard:\n%v\n----\n%v", seq, one)
	}
	// Across shard counts the schedule legitimately differs, but the
	// identity-keyed draws must keep the crash population stable for
	// requests that aren't rescheduled: total crashes stay within the
	// same order, and conservation holds per run.
	two := serve(2)
	if two.Requests != offered {
		t.Errorf("2-shard conservation broken: %d requests counted, %d offered", two.Requests, offered)
	}
	if two.Crashes == 0 {
		t.Error("2-shard run lost the hazard entirely")
	}
}

// TestLatencySeries: with a series window armed the pool records one
// histogram per window of virtual time; their counts must sum to the
// aggregate and merging across shards must keep that true.
func TestLatencySeries(t *testing.T) {
	p := testPool(t, Config{MinWarm: 4, MaxInstances: 16,
		SeriesWindow: 10 * time.Millisecond})
	defer p.Close()
	rep, err := p.ServeWith(NewPoisson(13, 40_000, 30_000, 256), ServeOpts{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) == 0 {
		t.Fatal("no series windows recorded")
	}
	var total uint64
	for _, h := range rep.Series {
		total += h.Count
	}
	if total != rep.Latency.Count {
		t.Errorf("series counts sum to %d, aggregate has %d", total, rep.Latency.Count)
	}
}

// TestFailStopClosesPool: a serve cut off by CrashAt leaves in-service
// and booting instances in the fleet for good, so the pool must refuse
// the next serve instead of cold-booting against a phantom-full fleet —
// a fail-stopped host is dead. Close still releases it, hook included.
func TestFailStopClosesPool(t *testing.T) {
	for _, shards := range []int{1, 2} {
		hooks := 0
		p := newPool(testBoot(t), func() { hooks++ }, Config{MinWarm: 2, MaxInstances: 4,
			SyscallsPerRequest: 4, AppCycles: 2_000_000})
		// ~0.55ms of service per request, arrivals every 100us: the
		// fleet is saturated and the queue deep when the host dies.
		rep, err := p.ServeWith(NewPoisson(3, 10_000, 400, 256),
			ServeOpts{Shards: shards, CrashAt: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != 400 || rep.Failed == 0 || rep.Completed() == 0 {
			t.Fatalf("shards=%d: fail-stop report requests=%d failed=%d completed=%d",
				shards, rep.Requests, rep.Failed, rep.Completed())
		}
		if _, err := p.Serve(NewPoisson(4, 10_000, 10, 256)); err == nil {
			t.Errorf("shards=%d: Serve after a fail-stop succeeded", shards)
		}
		p.Close()
		p.Close()
		if hooks != 1 || len(p.fleet) != 0 {
			t.Errorf("shards=%d: after Close hooks=%d size=%d, want 1/0", shards, hooks, len(p.fleet))
		}
	}
}

// TestPoolCloseIdempotentAndServeErrors: Close twice is safe, and
// serving a closed pool reports an error instead of panicking.
func TestPoolCloseIdempotentAndServeErrors(t *testing.T) {
	p := testPool(t, Config{MinWarm: 2})
	p.Close()
	p.Close()
	if _, err := p.Serve(NewPoisson(1, 10_000, 100, 256)); err == nil {
		t.Error("Serve on closed pool returned nil error")
	}
	if _, err := p.ServeWith(NewPoisson(1, 10_000, 100, 256), ServeOpts{Shards: 2}); err == nil {
		t.Error("sharded serve on closed pool returned nil error")
	}
}
