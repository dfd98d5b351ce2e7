package ukpool

import (
	"cmp"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
)

// Config tunes a Pool. A zero field means the default documented on
// it, so the zero Config is a working pool; New fills and clamps every
// field in one place.
type Config struct {
	// MinWarm is the floor of pre-booted instances (default 8; a
	// negative floor means 1). Serve boots up to it before admitting
	// traffic and the autoscaler never shrinks below it.
	MinWarm int
	// MaxInstances caps the fleet, warm and busy together (default
	// 1024; never below MinWarm). Arrivals beyond the cap queue instead
	// of cold-booting.
	MaxInstances int
	// ColdBurst bounds cold boots in flight at once (default 32; a
	// negative bound means 1). A miss beyond it queues instead of
	// booting: with multi-millisecond boots, unbounded demand-driven
	// boots would storm the fleet to its cap before the first instance
	// comes up. Growing past the burst allowance is the autoscaler's
	// job.
	ColdBurst int
	// SyscallsPerRequest is the number of shim-translated syscalls an
	// instance issues per request (default 4: read, work, write, close).
	SyscallsPerRequest int
	// AppCycles is the application-level work per request in CPU cycles
	// (default 12000, ~3.3us at 3.6GHz).
	AppCycles uint64
	// RecycleEvery resets an instance's heap after this many served
	// requests (default 4096; negative disables recycling).
	RecycleEvery int
	// ScaleWindow is the autoscaler's observation window and tick
	// period (default 50ms of virtual time, also for a negative window).
	ScaleWindow time.Duration
	// TargetP99 is the request-latency SLO; a window whose p99 exceeds
	// it triggers a scale-up regardless of utilization (default 2ms;
	// negative disables the override).
	TargetP99 time.Duration
	// NoAutoscale pins the warm set at MinWarm; cold boots still happen
	// on demand up to MaxInstances (default false: the rate/latency-
	// driven warm-set controller runs).
	NoAutoscale bool
	// ZeroCopy drops the per-request payload copy charges (RX and TX)
	// from the service-time model — the Spec's WithZeroCopy plumbed
	// into the serving layer (default off: the copying path is the
	// calibrated baseline).
	ZeroCopy bool
	// KickBatch amortizes the two per-request virtqueue kicks
	// (VM-exit-class cost) over a batch of n requests, the Spec's
	// WithTxBatch (default 1: one pair of kicks per request; so is any
	// batch below 1).
	KickBatch int
	// RequestWork, when set, runs inside every request's service window
	// with the serving instance's VM and the pool-wide request ordinal
	// (1-based, deterministic under Serve and per shard under
	// ServeParallel). Whatever it charges to the instance's machine —
	// e.g. driving the VM's VFS through an open/sendfile/close per
	// request, the fileserve experiment's workload — lands in that
	// request's service time.
	RequestWork func(vm *ukboot.VM, seq int)
	// Faults is the pool-level fault model (default none): each request
	// crashes its serving instance mid-service with probability
	// Faults.Hazard, drawn deterministically from FaultSeed and the
	// request's identity. The partial service is charged, the instance
	// is restarted in its slot through the usual spawn path (a fork
	// clone when the pool has a template), and the request retries on
	// another instance up to crashRetries times before counting Failed.
	Faults ukfault.VMFaults
	// FaultSeed domain-separates this pool's crash draws (hosts in a
	// cluster get distinct seeds derived from the plan seed).
	FaultSeed uint64
	// BreakerAfter is the circuit breaker: an instance that crashes this
	// many times without completing a request in between is retired
	// instead of restarted (default 3; negative disables the breaker).
	BreakerAfter int
	// SeriesWindow, when > 0, additionally buckets completion latencies
	// into fixed windows of virtual time (Report.Series) — the timeline
	// the chaos experiment derives recovery time from.
	SeriesWindow time.Duration
	// DefaultDeadline, when > 0, stamps every request that arrives
	// without its own deadline: deadline = origin + DefaultDeadline
	// (origin is the front-door arrival when the cluster router set one,
	// the pool arrival otherwise). Requests whose deadline has already
	// passed when an instance would pick them up are dropped before any
	// service time is charged and counted Expired.
	DefaultDeadline time.Duration
	// BrownoutWater, when > 0, arms the brownout hook: a request that
	// starts service while at least this many requests are queued behind
	// it is served degraded — RequestWork is skipped and the application
	// work drops to AppCycles / 2 — trading response fidelity for
	// drain rate before anything is dropped. Counted in Report.Browned.
	BrownoutWater int
	// SlowFactor > 1 multiplies every service time by that factor inside
	// the virtual-time window [SlowFrom, SlowTo) — external interference
	// (a noisy neighbor, a failing disk) that slows the host without
	// charging its CPU. SlowTo <= SlowFrom means "until the trace ends".
	// The fault plan's slow-host scenarios map here.
	SlowFactor       float64
	SlowFrom, SlowTo time.Duration
	// NewLoop, when set, supplies the event-loop engine every serve
	// (and every shard of a parallel serve) runs on. Default nil uses
	// sim.EventLoop, a binary heap; the benchmark wraps it to trace
	// dispatches, and the engine-identity test swaps in the heap oracle
	// from internal/sim/simtest. Any engine satisfying sim.Loop's
	// dispatch-order contract (ascending timestamp, admission order
	// within an instant) yields byte-identical reports.
	NewLoop func() sim.Loop
}

// Option adjusts a Config: the SDK's pool options are Options.
type Option func(*Config)

// WithEngine selects the event-loop engine serves run on (see
// Config.NewLoop); the benchmark passes its tracing engine through the
// SDK this way.
func WithEngine(mk func() sim.Loop) Option {
	return func(c *Config) { c.NewLoop = mk }
}

// headroom multiplies the autoscaler's Little's-law concurrency
// estimate (arrival rate x mean service time) when sizing the warm set.
const headroom = 2.0

// crashRetries bounds how many times a request whose instance crashed
// mid-service is redispatched before it counts Failed.
const crashRetries = 2

// withDefaults is c with every zero field at its documented default
// and every field clamped into range.
func (c Config) withDefaults() Config {
	c.MinWarm = max(cmp.Or(c.MinWarm, 8), 1)
	c.MaxInstances = max(cmp.Or(c.MaxInstances, 1024), c.MinWarm)
	c.ColdBurst = max(cmp.Or(c.ColdBurst, 32), 1)
	c.SyscallsPerRequest = cmp.Or(c.SyscallsPerRequest, 4)
	c.AppCycles = cmp.Or(c.AppCycles, 12_000)
	c.RecycleEvery = cmp.Or(c.RecycleEvery, 4096)
	c.ScaleWindow = cmp.Or(max(c.ScaleWindow, 0), 50*time.Millisecond)
	c.TargetP99 = cmp.Or(c.TargetP99, 2*time.Millisecond)
	c.KickBatch = max(c.KickBatch, 1)
	c.BreakerAfter = cmp.Or(c.BreakerAfter, 3)
	return c
}
