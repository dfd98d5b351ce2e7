package unikraft

import (
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// FaultPlan is a deterministic, virtual-time fault schedule for a
// Cluster.Serve run: fail-stop host crashes (with optional rejoin),
// link degradation (added delay, loss, partitions) and a per-request
// VM crash hazard. Plans are pure data — the same seed and plan
// against the same workload reproduce the same serve byte-for-byte,
// so a failover bug found in a report is replayable forever.
//
//	plan := unikraft.NewFaultPlan(42).
//	    CrashHost(2, 300*time.Millisecond).
//	    WithVMHazard(1e-4)
//	c, err := rt.NewCluster(spec, unikraft.WithHosts(8),
//	    unikraft.WithFaultPlan(plan))
type FaultPlan = ukfault.Plan

// NewFaultPlan starts an empty fault plan with the given seed. Chain
// CrashHost / CrashHostRejoin / DegradeLink / PartitionHost /
// WithVMHazard to populate it; an empty plan leaves Serve
// byte-identical to a fault-free run.
func NewFaultPlan(seed uint64) *FaultPlan { return ukfault.New(seed) }

// WithFaultPlan injects the fault plan into every Serve on the
// cluster. The front door gains priced health probes, timeout-based
// failure detection, retries with exponential backoff and admission
// control; crashed hosts lose their in-flight requests to the retry
// path and are replaced from standby via snapshot handoff. The plan's
// VM hazard is applied to every host's pool with a host-distinct
// sub-seed derived from the plan seed.
func WithFaultPlan(p *FaultPlan) ClusterOption {
	return func(c *clusterSettings) { c.cfg.Faults = p }
}

// WithRetryPolicy bounds the front door's retransmission of lost
// forwards: at most limit attempts per request (default 3), backing
// off exponentially from backoff (default 250µs), and at most budget
// retries across the whole trace (default 0: unbounded). Requests
// exhausting either bound are reported Failed, never silently lost.
func WithRetryPolicy(limit int, backoff time.Duration, budget int) ClusterOption {
	return func(c *clusterSettings) {
		c.cfg.RetryLimit = limit
		c.cfg.RetryBackoff = backoff
		c.cfg.RetryBudget = budget
	}
}

// WithDeadline gives every request without a deadline of its own an
// end-to-end allowance of d from its arrival at the front door. The
// router drops requests whose deadline passes while they queue at the
// door (a cheap priced 504, counted Expired), and the deadline rides
// to the serving host, whose pool drops expired queue entries before
// charging any service time. Under overload this is the difference
// between a queue that wastes capacity on answers nobody is waiting
// for and one that spends every cycle on requests that can still
// succeed.
func WithDeadline(d time.Duration) ClusterOption {
	return func(c *clusterSettings) { c.cfg.DefaultDeadline = d }
}

// WithAdmission arms the front door's adaptive admission controller
// with a queue-delay target: every evaluation window the router
// compares its estimated backlog-per-core delay against the target and
// sheds a proportional fraction of fresh arrivals when the delay
// exceeds it — delay-based control in the CoDel tradition, replacing
// the static shed threshold's cliff with a controller that holds the
// queue near the target at any overload ratio. Shedding is staged by
// priority class: batch traffic is sacrificed from the target up,
// interactive traffic only past three times the target.
func WithAdmission(target time.Duration) ClusterOption {
	return func(c *clusterSettings) { c.cfg.AdmitTarget = target }
}

// WithRetryThrottle arms the front door's retry token bucket: each
// successful forward earns ratio tokens (capped at 50, the bucket's
// initial fill) and each retry of a lost forward spends one. When
// losses outpace successes the bucket runs dry and further retries are
// cut — counted Throttled, the request Failed — so aggregate retry
// traffic is bounded at ~ratio of successful traffic and a partition
// cannot ignite a retry storm.
func WithRetryThrottle(ratio float64) ClusterOption {
	return func(c *clusterSettings) { c.cfg.RetryThrottleRatio = ratio }
}

// WithBrownout makes every host's pool degrade before it drops: when a
// pool shard's queue is depth deep, requests are served in brownout
// mode — half the application cycles, no per-request attachment work —
// trading answer quality for drain rate (counted Browned). Degrade
// first, drop second is the overload playbook; the deadline and
// admission layers only see the load brownout could not absorb.
func WithBrownout(depth int) ClusterOption {
	return func(c *clusterSettings) { c.poolOpts = append(c.poolOpts, WithPoolBrownout(depth)) }
}

// WithPoolCrashHazard gives every request served by the pool an
// independent probability of crashing its serving instance mid-request
// (partial service charged, instance restarted by fork, request
// retried). Draws are keyed on request identity, so shard counts and
// host placement don't change which requests crash.
func WithPoolCrashHazard(hazard float64, seed uint64) PoolOption {
	return func(c *ukpool.Config) { c.Faults.Hazard, c.FaultSeed = hazard, seed }
}

// WithPoolSlowdown stretches every service started in [from, to) by
// factor (to <= from: until the trace ends), the noisy-neighbor hazard;
// the cluster wires it for the hosts a fault plan marks slow.
func WithPoolSlowdown(from, to time.Duration, factor float64) PoolOption {
	w := ukfault.Window{From: from, To: to}
	return func(c *ukpool.Config) { c.Slow = ukfault.SlowHost{Window: w, Factor: factor} }
}

// WithPoolBreaker retires an instance after n consecutive mid-request
// crashes instead of restarting it again (default 3; the circuit
// breaker that stops a poisoned instance from eating retries).
func WithPoolBreaker(n int) PoolOption { return func(c *ukpool.Config) { c.BreakerAfter = n } }

// WithPoolLatencySeries records a per-window latency histogram series
// (window d of virtual time) alongside the aggregate — what recovery-
// time analysis reads to find when p99 returns to its pre-fault band.
func WithPoolLatencySeries(d time.Duration) PoolOption {
	return func(c *ukpool.Config) { c.SeriesWindow = d }
}
