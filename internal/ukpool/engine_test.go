package ukpool

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/sim/simtest"
)

// TestServeEngineIdentity is the pool-level corollary of the
// differential tests in internal/sim: serving the same bursty
// trace on the default wheel engine and on the heap oracle (via
// Config.NewLoop) must produce bit-identical ServeReports — same routing
// counts, latency quantiles, windowed series and fleet trajectory.
// Engines differ only in queue data structure, never in dispatch order.
func TestServeEngineIdentity(t *testing.T) {
	boot := testBoot(t)
	var trace []Request
	w := NewBursty(11, 20_000, 400_000, 200*time.Millisecond, 0.25, 30_000, 256)
	for {
		req, ok := w.Next()
		if !ok {
			break
		}
		trace = append(trace, req)
	}
	cfg := Config{MinWarm: 4, MaxInstances: 16, SeriesWindow: 100 * time.Millisecond}

	wheelPool := newPool(boot, nil, cfg)
	wheel, err := wheelPool.Serve(NewTrace(trace))
	wheelPool.Close()
	if err != nil {
		t.Fatal(err)
	}

	cfg.NewLoop = func() sim.Loop { return simtest.NewHeapLoop() }
	heapPool := newPool(boot, nil, cfg)
	heap, err := heapPool.Serve(NewTrace(trace))
	heapPool.Close()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(wheel, heap) {
		t.Errorf("heap-engine report diverged from wheel:\n%v\nvs\n%v", heap, wheel)
	}
}
