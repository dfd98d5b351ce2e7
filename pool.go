package unikraft

import (
	"hash/fnv"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukpool"
)

// Pool is the warm-pool serving layer: a fleet of pre-booted instances
// of one Spec that serves request streams, cold-booting on demand and
// autoscaling the warm set — see Runtime.NewPool.
type Pool = ukpool.Pool

// PoolOption tunes a Pool at construction (WithPoolWarm,
// WithPoolMaxInstances, WithPoolServiceCost, ...): each sets a field
// of the pool's ukpool.Config, whose zero fields mean the defaults.
type PoolOption = ukpool.Option

// ServeReport is the outcome of one Pool.Serve run: throughput,
// warm/cold routing counts, autoscaler activity, and boot-time and
// request-latency histograms.
type ServeReport = ukpool.Report

// ServeHistogram is the log-bucketed latency histogram inside a
// ServeReport.
type ServeHistogram = ukpool.Histogram

// Workload is a stream of requests for Pool.Serve, in arrival order.
type Workload = ukpool.Workload

// Request is one unit of offered load.
type Request = ukpool.Request

// NewPool builds a serving pool for the spec: the image is linked once,
// the boot pipeline is pre-validated into a reusable ukboot.Context,
// and every instance then boots from that context on its own simulated
// machine (seeded deterministically per instance, derived from the
// spec). No instances boot until the first serve.
//
//	rt := unikraft.NewRuntime()
//	pool, err := rt.NewPool(unikraft.NewSpec("nginx", unikraft.WithVMM("firecracker")),
//	    unikraft.WithPoolWarm(16))
//	report, err := pool.Serve(unikraft.PoissonWorkload(1, 200_000, 1_000_000, 256))
//	fmt.Println(report)
func (rt *Runtime) NewPool(s Spec, opts ...PoolOption) (*Pool, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return nil, err
	}
	bootCfg, err := rt.poolBootConfig(r, s)
	if err != nil {
		return nil, err
	}
	return newHostPool(s, bootCfg, 0, opts...)
}

// poolBootConfig links the spec's image and returns the boot config
// every pool instance of the spec boots from.
func (rt *Runtime) poolBootConfig(r resolved, s Spec) (ukboot.Config, error) {
	img, err := ukbuild.Build(rt.Catalog(), r.profile, r.platform.Name, r.build)
	if err != nil {
		return ukboot.Config{}, err
	}
	return rt.bootConfig(r, s, img.Bytes), nil
}

// newHostPool is the pool of cluster host `host` over bootCfg, the
// spec's boot config: the host id salts the per-instance machine seeds
// (ukpool.HostSeed), and host 0 is NewPool exactly — byte-identical to
// a standalone pool of the spec.
func newHostPool(s Spec, bootCfg ukboot.Config, host int, opts ...PoolOption) (*Pool, error) {
	ctx, err := ukboot.NewContext(bootCfg)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	// The spec's data-path options feed the pool's per-request cost
	// model; the caller's options apply after them.
	cfg := ukpool.Config{ZeroCopy: s.ZeroCopy, KickBatch: s.TxKickBatch}
	for _, opt := range opts {
		opt(&cfg)
	}
	return ukpool.New(ctx, ukpool.HostSeed(h.Sum64(), host), s.SnapshotBoot, cfg)
}

// PoissonWorkload is an open-loop Poisson arrival process: n requests
// of size bytes at rate requests/second, derived from seed.
func PoissonWorkload(seed uint64, rate float64, n, bytes int) Workload {
	return ukpool.NewPoisson(seed, rate, n, bytes)
}

// BurstyWorkload is an on/off modulated Poisson process: within each
// period the first duty fraction runs at burstRate, the rest at
// baseRate — the trace shape that exercises cold boots and the
// autoscaler.
func BurstyWorkload(seed uint64, baseRate, burstRate float64, period time.Duration, duty float64, n, bytes int) Workload {
	return ukpool.NewBursty(seed, baseRate, burstRate, period, duty, n, bytes)
}

// TraceWorkload replays a fixed request slice (sorted by arrival).
func TraceWorkload(reqs []Request) Workload { return ukpool.NewTrace(reqs) }

// OverloadOption shapes an OverloadWorkload (WithPriorityMix,
// WithWorkloadDeadlines, WithWorkloadSessions, WithSurge).
type OverloadOption func(*ukpool.Arrivals)

// WithPriorityMix sets the interactive share of an overload trace in
// [0, 1]; the remainder is batch-class traffic, which staged admission
// control sacrifices first (default 1: all interactive).
func WithPriorityMix(interactiveShare float64) OverloadOption {
	return func(o *ukpool.Arrivals) { o.Mix(interactiveShare) }
}

// WithWorkloadDeadlines stamps per-class relative deadlines on an
// overload trace: each request's absolute deadline is its arrival plus
// its class's allowance (0 leaves that class deadline-free).
func WithWorkloadDeadlines(interactive, batch time.Duration) OverloadOption {
	return func(o *ukpool.Arrivals) { o.Deadlines(interactive, batch) }
}

// WithWorkloadSessions draws request keys from a population of n
// sessions (for hash affinity); <= 0 leaves requests anonymous.
func WithWorkloadSessions(n int) OverloadOption {
	return func(o *ukpool.Arrivals) { o.Sessions(n) }
}

// WithSurge multiplies the overload trace's arrival rate by factor
// inside [at, at+dur) — a flash-crowd spike on top of the sustained
// overload.
func WithSurge(at, dur time.Duration, factor float64) OverloadOption {
	return func(o *ukpool.Arrivals) { o.Surge(at, dur, factor) }
}

// OverloadWorkload is the open-loop overload trace: n requests of size
// bytes arriving Poisson at a fixed rate — typically a multiple of
// serving capacity — with no client backpressure, the regime where
// uncontrolled FIFO queues collapse. Options attach a priority mix,
// per-class deadlines, session keys and a surge window; the deadlines
// ride each request end to end, from generation through the front door
// into the pool queue.
func OverloadWorkload(seed uint64, rate float64, n, bytes int, opts ...OverloadOption) Workload {
	o := ukpool.NewOverload(seed, rate, n, bytes)
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Pool options. The canonical names carry the Pool prefix — they
// configure a Pool, not a Spec, and the prefix keeps them from
// colliding with spec options. Each sets one ukpool.Config field; what
// the spec already says (WithZeroCopy, WithTxBatch, WithSnapshotBoot)
// NewPool derives and has no pool option.

// WithPoolWarm sets the pool's warm-instance floor (default 8).
func WithPoolWarm(n int) PoolOption { return func(c *ukpool.Config) { c.MinWarm = n } }

// WithPoolMaxInstances caps the pool's fleet size (default 1024).
func WithPoolMaxInstances(n int) PoolOption { return func(c *ukpool.Config) { c.MaxInstances = n } }

// WithPoolColdBurst bounds demand-driven cold boots in flight at once
// (default 32); misses beyond it queue for the autoscaler to fix.
func WithPoolColdBurst(n int) PoolOption { return func(c *ukpool.Config) { c.ColdBurst = n } }

// WithPoolServiceCost sets the per-request cost model: shim syscall
// count (default 4) and application cycles (default 12000).
func WithPoolServiceCost(syscalls int, appCycles uint64) PoolOption {
	return func(c *ukpool.Config) { c.SyscallsPerRequest, c.AppCycles = syscalls, appCycles }
}

// WithPoolScaleWindow sets the autoscaler tick period (default 50ms of
// virtual time).
func WithPoolScaleWindow(d time.Duration) PoolOption {
	return func(c *ukpool.Config) { c.ScaleWindow = d }
}

// WithPoolTargetP99 sets the latency SLO that triggers scale-ups
// (default 2ms; negative disables the SLO override).
func WithPoolTargetP99(d time.Duration) PoolOption {
	return func(c *ukpool.Config) { c.TargetP99 = d }
}

// DisablePoolAutoscale pins the warm set at the floor; cold boots still
// happen on demand.
func DisablePoolAutoscale() PoolOption { return func(c *ukpool.Config) { c.NoAutoscale = true } }

// WithPoolDeadline stamps arrival + d as the deadline on every request
// that reaches the pool without one. Expired requests — dead on
// arrival or timed out while queued — are dropped before any service
// time is charged and counted Expired, so a standalone pool gets the
// same deadline discipline the cluster front door provides.
func WithPoolDeadline(d time.Duration) PoolOption {
	return func(c *ukpool.Config) { c.DefaultDeadline = d }
}

// WithPoolBrownout serves requests in degraded mode (half the
// application cycles, no per-request attachment work) whenever the
// shard's queue is depth deep — degrade before you drop. Counted in
// Report.Browned.
func WithPoolBrownout(depth int) PoolOption {
	return func(c *ukpool.Config) { c.BrownoutWater = depth }
}

// WithPoolRequestWork attaches per-request instance work to the pool:
// fn runs inside every request's service window with the serving
// instance's VM and the request ordinal, and whatever it charges to the
// VM's machine lands in that request's service time. This is how a
// file-serving spec drives each instance's VFS (open/sendfile/close)
// under pool traffic.
func WithPoolRequestWork(fn func(vm *VM, seq int)) PoolOption {
	return func(c *ukpool.Config) { c.RequestWork = fn }
}
