package ukpool

import (
	"testing"
)

// poolServeRequests sizes the benchmark trace: a full million requests,
// the serving experiment's scale, so allocation behaviour is measured
// where it matters. allocs/op is per whole trace — the steady-state
// target is a few allocations per thousand requests (fleet boots, heap
// growth), not per request.
const poolServeRequests = 1_000_000

// BenchmarkPoolServe pushes a 1M-request steady Poisson trace through
// one pool on a single event loop. ReportAllocs guards the intrusive
// event fast path: regressions that reintroduce per-event closures show
// up as ~1M extra allocs/op.
func BenchmarkPoolServe(b *testing.B) {
	boot := testBoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := newPool(boot, nil, Config{MinWarm: 32, MaxInstances: 256})
		rep, err := p.Serve(NewPoisson(1, 250_000, poolServeRequests, 256))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests != poolServeRequests {
			b.Fatalf("served %d requests", rep.Requests)
		}
		b.ReportMetric(rep.Throughput(), "virt-req/s")
		p.Close()
	}
}

// BenchmarkPoolServeParallel is the same trace through the sharded
// engine: per-shard event loops on separate goroutines, deterministic
// merge.
func BenchmarkPoolServeParallel(b *testing.B) {
	boot := testBoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := newPool(boot, nil, Config{MinWarm: 32, MaxInstances: 256})
		rep, err := p.ServeWith(NewPoisson(1, 250_000, poolServeRequests, 256), ServeOpts{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests != poolServeRequests {
			b.Fatalf("served %d requests", rep.Requests)
		}
		p.Close()
	}
}
