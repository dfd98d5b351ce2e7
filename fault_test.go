package unikraft

// SDK-level tests for the fault-injection layer: plans built through
// the public API, the empty-plan identity guarantee, deterministic
// failover through Runtime.NewCluster, and the per-pool hazard options.

import (
	"reflect"
	"testing"
	"time"
)

// TestFaultPlanEmptyIdentity: a cluster built with an empty fault plan
// must serve byte-identically to one built without a plan at all — at
// the SDK level, through real specs and snapshot handoff.
func TestFaultPlanEmptyIdentity(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithSnapshotBoot())
	rt := NewRuntime()
	defer rt.Close()

	serve := func(opts ...ClusterOption) *ClusterReport {
		all := append([]ClusterOption{
			WithHosts(4), WithActiveHosts(2), WithCoresPerHost(2),
			WithHostPoolOptions(WithPoolWarm(4), WithPoolMaxInstances(64)),
		}, opts...)
		c, err := rt.NewCluster(spec, all...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(clusterTrace(30_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve()
	empty := serve(WithFaultPlan(NewFaultPlan(99)))
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty fault plan diverged from fault-free serve:\n%v\n----\n%v", plain, empty)
	}
}

// TestFaultPlanFailoverDeterministic: the same plan and seed reproduce
// the same crash, detection, retries and goodput bit-for-bit through
// the public API.
func TestFaultPlanFailoverDeterministic(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithSnapshotBoot())
	rt := NewRuntime()
	defer rt.Close()

	run := func() *ClusterReport {
		plan := NewFaultPlan(55).
			CrashHost(1, 200*time.Millisecond).
			WithVMHazard(1e-3)
		c, err := rt.NewCluster(spec,
			WithHosts(4), WithActiveHosts(2), WithCoresPerHost(2),
			WithMinActiveHosts(2),
			WithHostPoolOptions(WithPoolWarm(4), WithPoolMaxInstances(64)),
			WithFaultPlan(plan),
			WithRetryPolicy(3, 250*time.Microsecond, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(clusterTrace(30_000))
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
	if a.Pool.Crashes == 0 {
		t.Error("VM hazard never crashed an instance")
	}
	if a.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", a.Dropped())
	}
	if g := a.Goodput(); g < 0.95 {
		t.Errorf("goodput %.4f collapsed under a single-host crash", g)
	}
}

// TestPoolCrashOptionsSDK: the pool-level hazard and breaker ride the
// public option surface, and the accounting identity holds.
func TestPoolCrashOptionsSDK(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20))
	rt := NewRuntime()
	pool, err := rt.NewPool(spec,
		WithPoolWarm(4), WithPoolMaxInstances(32),
		WithPoolCrashHazard(0.01, 77),
		WithPoolBreaker(3),
		WithPoolLatencySeries(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const offered = 40_000
	rep, err := pool.Serve(PoissonWorkload(3, 40_000, offered, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("1% hazard over 40K requests produced no crashes")
	}
	if rep.Requests != offered {
		t.Errorf("conservation broken: %d requests counted, %d offered", rep.Requests, offered)
	}
	if len(rep.Series) == 0 {
		t.Error("latency series not recorded")
	}
}
