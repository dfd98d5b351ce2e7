package unikraft

// SDK-level tests for the warm-pool serving layer: Runtime.NewPool over
// real specs, spec validation at pool construction, and concurrent
// Serve through the public API (exercised under -race in CI).

import (
	"sync"
	"testing"
	"time"
)

func TestRuntimeNewPoolServes(t *testing.T) {
	rt := NewRuntime()
	pool, err := rt.NewPool(
		NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20)),
		WithPoolWarm(4), WithPoolMaxInstances(64))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const n = 100_000
	rep, err := pool.Serve(PoissonWorkload(1, 150_000, n, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Fatalf("served %d, want %d", rep.Requests, n)
	}
	if hit := rep.WarmHitRatio(); hit < 0.9 {
		t.Errorf("warm-hit ratio %.3f, want > 0.9", hit)
	}
	// The helloworld firecracker boot lands in the paper's calibrated
	// range: past the 2.4ms VMM floor, well under qemu's ~40ms.
	if p50 := rep.Boot.Quantile(0.5); p50 < 2400*time.Microsecond || p50 > 10*time.Millisecond {
		t.Errorf("boot p50 = %v, want firecracker regime", p50)
	}
	if rep.Latency.Quantile(0.5) >= rep.Boot.Quantile(0.5) {
		t.Error("median latency not warm")
	}
}

func TestNewPoolValidatesSpec(t *testing.T) {
	rt := NewRuntime()
	if _, err := rt.NewPool(NewSpec("notepad")); err == nil {
		t.Error("NewPool accepted unknown app")
	}
	if _, err := rt.NewPool(NewSpec("nginx", WithVMM("vmware"))); err == nil {
		t.Error("NewPool accepted unknown VMM")
	}
	if _, err := rt.NewPool(NewSpec("nginx", WithStackBytes(-1))); err == nil {
		t.Error("NewPool accepted negative stack")
	}
}

func TestPoolConcurrentServe(t *testing.T) {
	rt := NewRuntime()
	pool, err := rt.NewPool(NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20)),
		WithPoolWarm(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := pool.Serve(PoissonWorkload(uint64(i), 50_000, 2_000, 128))
			if err != nil {
				errs[i] = err
				return
			}
			if rep.Requests != 2_000 {
				t.Errorf("stream %d served %d", i, rep.Requests)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
}

func TestBurstyPoolAutoscales(t *testing.T) {
	rt := NewRuntime()
	pool, err := rt.NewPool(NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20)),
		WithPoolWarm(2), WithPoolMaxInstances(128), WithPoolColdBurst(4),
		WithPoolServiceCost(4, 170_000), WithPoolScaleWindow(10*time.Millisecond),
		WithPoolTargetP99(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rep, err := pool.Serve(BurstyWorkload(9, 20_000, 200_000, 200*time.Millisecond, 0.4, 50_000, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdBoots == 0 {
		t.Error("bursty load never cold-booted")
	}
	if rep.ScaleUps == 0 && rep.ScaleDowns == 0 {
		t.Errorf("autoscaler never acted: %v", rep)
	}
	if rep.PeakInstances <= 2 {
		t.Error("fleet never grew")
	}
}
