package unikraft

// SDK-level tests for the overload-control layer: deadlines, adaptive
// admission, retry throttling and brownout through the public option
// surface, plus the armed-but-idle identity guarantee.

import (
	"reflect"
	"testing"
	"time"
)

// overloadSpec pins one instance per core so the SDK cluster has a
// real capacity ceiling for the overload trace to exceed.
func overloadClusterOpts(extra ...ClusterOption) []ClusterOption {
	return append([]ClusterOption{
		WithHosts(2), WithActiveHosts(2), WithMinActiveHosts(2),
		WithCoresPerHost(2),
		WithHostPoolOptions(WithPoolWarm(2), WithPoolMaxInstances(2)),
	}, extra...)
}

// TestOverloadArmedIdleIdentitySDK: at the SDK level — real specs,
// snapshot handoff, the full option surface — overload control that
// never triggers must serve byte-identically to a cluster built
// without it.
func TestOverloadArmedIdleIdentitySDK(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithSnapshotBoot(), WithAffinity("least-loaded"))
	rt := NewRuntime()
	defer rt.Close()

	serve := func(opts ...ClusterOption) *ClusterReport {
		c, err := rt.NewCluster(spec, overloadClusterOpts(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(OverloadWorkload(7, 20_000, 30_000, 256))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve()
	armed := serve(WithDeadline(time.Hour), WithAdmission(time.Hour),
		WithRetryThrottle(0.1))
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("armed-but-idle overload control diverged at the SDK level:\n%v\n----\n%v", plain, armed)
	}
}

// TestOverloadControlSDK: the stack armed through public options
// against a deadline-stamped priority-mix trace well past capacity.
// First with the adaptive admission controller: it sheds batch first
// and keeps the pools drained. Then with brownout instead: queues
// build to the deadline bound and the pools degrade before dropping.
// (Admission holds queues too short for brownout to trigger — the two
// layers are alternatives at the same margin, so they are asserted in
// separate serves.)
func TestOverloadControlSDK(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithAffinity("least-loaded"))
	rt := NewRuntime()
	defer rt.Close()

	serve := func(opts ...ClusterOption) *ClusterReport {
		c, err := rt.NewCluster(spec, overloadClusterOpts(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(OverloadWorkload(7, 2_000_000, 100_000, 256,
			WithPriorityMix(0.3),
			WithWorkloadDeadlines(10*time.Millisecond, 100*time.Millisecond),
			WithWorkloadSessions(64)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Dropped() != 0 {
			t.Fatalf("%d requests unaccounted for", rep.Dropped())
		}
		return rep
	}

	admitted := serve(WithDeadline(10*time.Millisecond), WithAdmission(time.Millisecond))
	if admitted.Shed == 0 {
		t.Error("overload never shed through the admission controller")
	}
	if admitted.ShedBatch <= admitted.Shed-admitted.ShedBatch {
		t.Errorf("shedding not staged: batch=%d interactive=%d",
			admitted.ShedBatch, admitted.Shed-admitted.ShedBatch)
	}
	if g := admitted.Goodput(); g <= 0 {
		t.Errorf("goodput %.4f under controlled overload", g)
	}

	browned := serve(WithDeadline(10*time.Millisecond), WithBrownout(32))
	if browned.Pool.Browned == 0 {
		t.Error("brownout never engaged with queues at the deadline bound")
	}
	if browned.Expired+browned.Pool.Expired == 0 {
		t.Error("deadlines never expired a request under overload")
	}
}

// TestOverloadWorkloadSurge: the surge option multiplies the open-loop
// rate inside its window — more arrivals land in the same virtual time
// than the flat trace delivers.
func TestOverloadWorkloadSurge(t *testing.T) {
	last := func(w Workload) time.Duration {
		var at time.Duration
		for {
			req, ok := w.Next()
			if !ok {
				return at
			}
			at = req.Arrival
		}
	}
	flat := last(OverloadWorkload(7, 50_000, 20_000, 256))
	surged := last(OverloadWorkload(7, 50_000, 20_000, 256,
		WithSurge(0, time.Second, 4)))
	if surged >= flat {
		t.Errorf("surged trace makespan %v >= flat %v", surged, flat)
	}
}

// TestPoolOverloadOptionsSDK: deadline, brownout and slowdown ride the
// public pool option surface.
func TestPoolOverloadOptionsSDK(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20))
	rt := NewRuntime()
	defer rt.Close()
	pool, err := rt.NewPool(spec,
		WithPoolWarm(2), WithPoolMaxInstances(2),
		WithPoolDeadline(5*time.Millisecond),
		WithPoolBrownout(16),
		WithPoolSlowdown(0, 100*time.Millisecond, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const offered = 50_000
	rep, err := pool.Serve(OverloadWorkload(7, 2_000_000, offered, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired == 0 {
		t.Error("pool deadline never expired a request under overload")
	}
	if rep.Browned == 0 {
		t.Error("pool brownout never engaged under overload")
	}
	if rep.Requests != offered {
		t.Errorf("conservation broken: %d requests counted, %d offered", rep.Requests, offered)
	}
}
