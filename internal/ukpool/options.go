package ukpool

import (
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
)

// Config tunes a Pool. The zero value is not useful; New fills every
// unset field with the defaults documented per field.
type Config struct {
	// MinWarm is the floor of pre-booted instances (default 8). Serve
	// boots up to it before admitting traffic and the autoscaler never
	// shrinks below it.
	MinWarm int
	// MaxInstances caps the fleet, warm and busy together (default
	// 1024). Arrivals beyond the cap queue instead of cold-booting.
	MaxInstances int
	// ColdBurst bounds cold boots in flight at once (default 32). A
	// miss beyond it queues instead of booting: with multi-millisecond
	// boots, unbounded demand-driven boots would storm the fleet to its
	// cap before the first instance comes up. Growing past the burst
	// allowance is the autoscaler's job.
	ColdBurst int
	// SyscallsPerRequest is the number of shim-translated syscalls an
	// instance issues per request (default 4: read, work, write, close).
	SyscallsPerRequest int
	// AppCycles is the application-level work per request in CPU cycles
	// (default 12000, ~3.3us at 3.6GHz).
	AppCycles uint64
	// RecycleEvery resets an instance's heap after this many served
	// requests (default 4096; 0 disables recycling).
	RecycleEvery int
	// ScaleWindow is the autoscaler's observation window and tick
	// period (default 50ms of virtual time).
	ScaleWindow time.Duration
	// TargetP99 is the request-latency SLO; a window whose p99 exceeds
	// it triggers a scale-up regardless of utilization (default 2ms).
	TargetP99 time.Duration
	// Headroom multiplies the Little's-law concurrency estimate
	// (arrival rate x mean service time) when sizing the warm set
	// (default 2.0).
	Headroom float64
	// Autoscale enables the rate/latency-driven warm-set controller
	// (default on; DisableAutoscale turns it off).
	Autoscale bool
	// ZeroCopy drops the per-request payload copy charges (RX and TX)
	// from the service-time model — the Spec's WithZeroCopy plumbed
	// into the serving layer (default off: the copying path is the
	// calibrated baseline).
	ZeroCopy bool
	// KickBatch amortizes the two per-request virtqueue kicks
	// (VM-exit-class cost) over a batch of n requests, the Spec's
	// WithTxBatch (default 1: one pair of kicks per request).
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
	// another instance up to CrashRetries times before counting Failed.
	Faults ukfault.VMFaults
	// FaultSeed domain-separates this pool's crash draws (hosts in a
	// cluster get distinct seeds derived from the plan seed).
	FaultSeed uint64
	// CrashRetries bounds per-request crash retries (default 2).
	CrashRetries int
	// BreakerAfter is the circuit breaker: an instance that crashes this
	// many times without completing a request in between is retired
	// instead of restarted (default 3; 0 disables the breaker).
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
	// ForkBoot, when set, replaces every instance instantiation (warm
	// floor, demand cold boots, autoscaler scale-ups) with a
	// snapshot-fork clone — the Spec's WithSnapshotBoot plumbed into the
	// fleet. The template belongs to whoever built the pool; see
	// WithOnClose for releasing it.
	ForkBoot BootFunc
	// OnClose runs once when the pool is closed — the hook the runtime
	// uses to release the pool-owned snapshot template.
	OnClose func()
	// NewLoop, when set, supplies the event-loop engine every serve
	// (and every shard of a parallel serve) runs on. Default nil uses
	// the timer-wheel sim.EventLoop; the benchmark wraps it to trace
	// dispatches, and the engine-identity test swaps in the heap oracle
	// from internal/sim/simtest. Any engine satisfying sim.Loop's
	// dispatch-order contract (ascending timestamp, admission order
	// within an instant) yields byte-identical reports.
	NewLoop func() sim.Loop
}

// Option adjusts a Config.
type Option func(*Config)

// WithWarm sets the warm-instance floor.
func WithWarm(n int) Option { return func(c *Config) { c.MinWarm = n } }

// WithMaxInstances caps the fleet size.
func WithMaxInstances(n int) Option { return func(c *Config) { c.MaxInstances = n } }

// WithColdBurst bounds demand-driven cold boots in flight at once.
func WithColdBurst(n int) Option { return func(c *Config) { c.ColdBurst = n } }

// WithServiceCost sets the per-request cost model: syscall count and
// application cycles.
func WithServiceCost(syscalls int, appCycles uint64) Option {
	return func(c *Config) {
		c.SyscallsPerRequest = syscalls
		c.AppCycles = appCycles
	}
}

// WithRecycleEvery resets an instance's heap after n served requests
// (0 disables).
func WithRecycleEvery(n int) Option { return func(c *Config) { c.RecycleEvery = n } }

// WithScaleWindow sets the autoscaler tick period.
func WithScaleWindow(d time.Duration) Option { return func(c *Config) { c.ScaleWindow = d } }

// WithTargetP99 sets the latency SLO driving scale-ups.
func WithTargetP99(d time.Duration) Option { return func(c *Config) { c.TargetP99 = d } }

// WithHeadroom sets the warm-set capacity margin.
func WithHeadroom(h float64) Option { return func(c *Config) { c.Headroom = h } }

// DisableAutoscale pins the warm set at MinWarm (cold boots still
// happen on demand up to MaxInstances).
func DisableAutoscale() Option { return func(c *Config) { c.Autoscale = false } }

// WithZeroCopy switches the per-request cost model to zero-copy buffer
// handoff: no payload copy charges on receive or send.
func WithZeroCopy() Option { return func(c *Config) { c.ZeroCopy = true } }

// WithKickBatch amortizes per-request virtqueue kicks over batches of n
// requests (n <= 1 means one kick pair per request).
func WithKickBatch(n int) Option { return func(c *Config) { c.KickBatch = n } }

// WithRequestWork attaches per-request instance work (see
// Config.RequestWork).
func WithRequestWork(fn func(vm *ukboot.VM, seq int)) Option {
	return func(c *Config) { c.RequestWork = fn }
}

// WithCrashHazard arms the per-request VM crash hazard, seeded for
// deterministic draws.
func WithCrashHazard(hazard float64, seed uint64) Option {
	return func(c *Config) {
		c.Faults.Hazard = hazard
		c.FaultSeed = seed
	}
}

// WithCrashRetries bounds how many times a crashed request is retried
// before it counts as Failed.
func WithCrashRetries(n int) Option { return func(c *Config) { c.CrashRetries = n } }

// WithBreaker sets the circuit-breaker threshold: consecutive crashes
// before an instance is retired instead of restarted (0 disables).
func WithBreaker(n int) Option { return func(c *Config) { c.BreakerAfter = n } }

// WithLatencySeries records per-window latency histograms
// (Report.Series) with the given window of virtual time.
func WithLatencySeries(d time.Duration) Option {
	return func(c *Config) { c.SeriesWindow = d }
}

// WithEngine selects the event-loop engine serves run on (nil restores
// the default timer wheel). The engine only changes how the dispatch
// order is computed, never what it is, so reports are byte-identical
// across engines.
func WithEngine(mk func() sim.Loop) Option {
	return func(c *Config) { c.NewLoop = mk }
}

// WithDeadline stamps a default end-to-end deadline (origin + d) on
// every request that arrives without one; expired requests are dropped
// unserved and counted Expired.
func WithDeadline(d time.Duration) Option {
	return func(c *Config) { c.DefaultDeadline = d }
}

// WithBrownout arms degraded-mode serving once the queue behind a
// dispatch reaches depth (0 disables; see Config.BrownoutWater).
func WithBrownout(depth int) Option {
	return func(c *Config) { c.BrownoutWater = depth }
}

// WithSlowdown multiplies service times by factor inside [from, to) —
// the slow-host fault scenario (factor <= 1 disables).
func WithSlowdown(from, to time.Duration, factor float64) Option {
	return func(c *Config) {
		c.SlowFrom, c.SlowTo, c.SlowFactor = from, to, factor
	}
}

// WithForkBoot makes the fleet instantiate instances by snapshot-fork
// instead of the full boot pipeline. The fork func must satisfy the
// same contract as the pool's BootFunc (own machine per call, unique
// deterministic ids).
func WithForkBoot(fork BootFunc) Option { return func(c *Config) { c.ForkBoot = fork } }

// WithOnClose registers a hook run once by Pool.Close — used to release
// pool-owned resources such as the snapshot template behind a fork
// boot.
func WithOnClose(fn func()) Option { return func(c *Config) { c.OnClose = fn } }
