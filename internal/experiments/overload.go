package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

func init() {
	register("overload", "Overload control: end-to-end deadlines, adaptive admission, brownout and retry-storm suppression", overloadServe)
}

// overloadRequests is the headline trace size: the overload claim
// (sustain >= 95% of capacity at 2.5x offered load with bounded
// interactive latency) has to hold open-loop at scale, so the headline
// rows push ten million requests each.
const overloadRequests = 10_000_000

// Fleet shape: 2 hosts x 4 cores, one pinned instance per core
// (autoscale off), so serving capacity is exactly cores/serviceTime —
// the single-server-queue-per-core regime where an uncontrolled FIFO
// genuinely collapses under sustained overload.
const (
	overloadHosts = 2
	overloadCores = 4
	// overloadEstService matches the chaos experiment's calibration of
	// the same cost model (4 syscalls + 170K app cycles): ~47us/request.
	overloadEstService = 47 * time.Microsecond
	// overloadRate is ~2.5x the 8-core fleet's ~170K req/s capacity.
	overloadRate = 425_000
	// overloadDeadline is the interactive end-to-end allowance; batch
	// gets ten times that.
	overloadDeadline      = 20 * time.Millisecond
	overloadBatchDeadline = 200 * time.Millisecond
	// overloadAdmitTarget is the admission controller's queue-delay
	// target. The proportional controller settles the estimated delay
	// at roughly overloadRatio x the interactive threshold (3x target),
	// ~7.5ms here — well inside the 20ms deadline.
	overloadAdmitTarget = time.Millisecond
)

// overloadGoodputFloor is the headline gate: with control armed, the
// in-deadline completion rate must stay at or above 95% of measured
// fleet capacity while 2.5x that is being offered.
const overloadGoodputFloor = 0.95

// overloadServe measures the overload-control stack end to end: an
// open-loop trace at 2.5x capacity with no client backpressure, served
// uncontrolled (latency collapse), then with deadlines + adaptive
// admission (bounded latency, sustained goodput), plus staged priority
// shedding, brownout, slow-host steering and retry-storm suppression.
// Everything is deterministic; the armed-but-idle configuration must
// reproduce the unarmed serve byte-for-byte.
func overloadServe(env *Env) (*Result, error) {
	bootCfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return nil, err
	}

	hostPool := func(extra []ukpool.Option) func(host int, opts ...ukpool.Option) (*ukpool.Pool, error) {
		return func(host int, opts ...ukpool.Option) (*ukpool.Pool, error) {
			ctx, err := ukboot.NewContext(bootCfg)
			if err != nil {
				return nil, err
			}
			return ukpool.NewFleet(ctx, ukpool.HostMachines(0, host), false, slices.Concat([]ukpool.Option{
				// One instance pinned per event-loop shard: capacity is
				// cores/serviceTime, nothing hides the queue.
				ukpool.WithWarm(overloadCores), ukpool.WithMaxInstances(overloadCores),
				ukpool.WithServiceCost(4, 170_000),
				ukpool.DisableAutoscale(),
			}, extra, opts)...)
		}
	}

	serve := func(cfg ukcluster.Config, w ukpool.Workload, extra ...ukpool.Option) (*ukcluster.Report, error) {
		cfg.Hosts = overloadHosts
		cfg.Cores = overloadCores
		cfg.InitialActive = overloadHosts
		cfg.MinActive = overloadHosts
		cfg.Policy = ukcluster.LeastLoaded
		cfg.NewPool = hostPool(extra)
		cfg.EstService = overloadEstService
		// Re-target the admission controller often relative to how fast
		// an open-loop trace at 2.5x can deepen the queue.
		cfg.EvalEvery = 2 * time.Millisecond
		c, err := ukcluster.New(cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Serve(w)
	}

	trace := func(n int, rate float64, mix float64, deadlines bool) *ukpool.Overload {
		w := ukpool.NewOverload(1201, rate, n, 256).Mix(mix)
		if deadlines {
			w.Deadlines(overloadDeadline, overloadBatchDeadline)
		}
		return w
	}

	res := &Result{
		ID: "overload", Title: Title("overload"),
		Headers: []string{"configuration", "requests", "served", "goodput(in-dl)",
			"expired", "shed", "shed-batch", "browned", "retried", "throttled", "int-p99"},
	}
	row := func(name string, rep *ukcluster.Report, inDl float64) {
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", rep.Offered),
			fmt.Sprintf("%d", rep.Pool.Completed()),
			fmt.Sprintf("%.3f%%", 100*inDl),
			fmt.Sprintf("%d", rep.Expired+rep.Pool.Expired),
			fmt.Sprintf("%d", rep.Shed),
			fmt.Sprintf("%d", rep.ShedBatch),
			fmt.Sprintf("%d", rep.Pool.Browned),
			fmt.Sprintf("%d", rep.Retried),
			fmt.Sprintf("%d", rep.Throttled),
			rep.Pool.Latency.Quantile(0.99).Round(time.Microsecond).String(),
		})
	}

	// Uncontrolled headline: no deadlines, no admission. Open-loop at
	// 2.5x capacity the FIFO backlog grows without bound; everything is
	// eventually "served", but the fraction served inside the interactive
	// deadline collapses — goodput by the only definition that matters.
	uncontrolled, err := serve(ukcluster.Config{}, trace(overloadRequests, overloadRate, 1, false))
	if err != nil {
		return nil, err
	}
	uncontrolledInDl := uncontrolled.Pool.Latency.FractionBelow(overloadDeadline) *
		float64(uncontrolled.Pool.Completed()) / float64(uncontrolled.Offered)
	row("overload-10M/uncontrolled", uncontrolled, uncontrolledInDl)

	// Controlled headline: the same trace carrying 20ms deadlines, with
	// the adaptive admission controller at the door. Excess load is shed
	// or expired cheaply; what is served completes in deadline, and the
	// fleet stays saturated with useful work.
	controlled, err := serve(ukcluster.Config{AdmitTarget: overloadAdmitTarget},
		trace(overloadRequests, overloadRate, 1, true))
	if err != nil {
		return nil, err
	}
	controlledInDl := float64(controlled.Pool.Completed()) / float64(controlled.Offered)
	row("overload-10M/deadline+admission", controlled, controlledInDl)

	const sideRequests = 2_000_000

	// Brownout: degrade before dropping. Past the configured queue depth
	// pools serve half-work responses, nearly doubling drain rate; the
	// admission controller correspondingly sheds less.
	browned, err := serve(ukcluster.Config{AdmitTarget: overloadAdmitTarget},
		trace(sideRequests, overloadRate, 1, true), ukpool.WithBrownout(64))
	if err != nil {
		return nil, err
	}
	row("overload-2M/+brownout", browned,
		float64(browned.Pool.Completed())/float64(browned.Offered))

	// Priority staging: a 30/70 interactive/batch mix. Batch sheds from
	// the target up, interactive only past 3x — the staged controller
	// sacrifices batch so interactive barely feels the overload.
	priority, err := serve(ukcluster.Config{AdmitTarget: overloadAdmitTarget},
		trace(sideRequests, overloadRate, 0.3, true))
	if err != nil {
		return nil, err
	}
	row("overload-2M/priority-30-70", priority,
		float64(priority.Pool.Completed())/float64(priority.Offered))

	// Retry storm: partition host 1 for two seconds at moderate load.
	// Lost forwards retry with backoff; unthrottled, every loss spawns
	// up to RetryLimit re-routes. The token bucket (refill 0.05/success)
	// cuts retries once losses outpace successes.
	const stormRate = 150_000
	stormWindow := func() *ukfault.Plan {
		return ukfault.New(977).PartitionHost(1, 2*time.Second, 4*time.Second)
	}
	storm, err := serve(ukcluster.Config{Faults: stormWindow()},
		trace(sideRequests, stormRate, 1, true))
	if err != nil {
		return nil, err
	}
	row("overload-2M/partition-retry-storm", storm,
		float64(storm.Pool.Completed())/float64(storm.Offered))
	throttled, err := serve(ukcluster.Config{Faults: stormWindow(), RetryThrottleRatio: 0.05},
		trace(sideRequests, stormRate, 1, true))
	if err != nil {
		return nil, err
	}
	row("overload-2M/+retry-throttle", throttled,
		float64(throttled.Pool.Completed())/float64(throttled.Offered))

	// Slow host: host 1 runs 3x slower for two seconds. The router's
	// fluid model inflates work forwarded there, least-loaded steers
	// around it, and the pool stretches the services it does start.
	slowPlan := ukfault.New(977).Slow(1, 2*time.Second, 4*time.Second, 3)
	slow, err := serve(ukcluster.Config{Faults: slowPlan, AdmitTarget: overloadAdmitTarget},
		trace(sideRequests, 120_000, 1, true))
	if err != nil {
		return nil, err
	}
	row("overload-2M/slow-host-3x", slow,
		float64(slow.Pool.Completed())/float64(slow.Offered))

	// The contract everything above rests on: overload control that is
	// armed but never triggers must reproduce the unarmed serve byte for
	// byte — deadlines nobody misses and an admission target nobody
	// reaches are free.
	const identityRequests = 200_000
	plain, err := serve(ukcluster.Config{}, trace(identityRequests, 100_000, 1, false))
	if err != nil {
		return nil, err
	}
	idle, err := serve(ukcluster.Config{AdmitTarget: time.Hour, DefaultDeadline: time.Hour},
		trace(identityRequests, 100_000, 1, false))
	if err != nil {
		return nil, err
	}
	identical := reflect.DeepEqual(*plain, *idle)

	// Measured capacity: the controlled run's own mean service time over
	// the fleet's core count. The headline gate is against this, not a
	// hand-derived constant, so recalibrations of the cost model don't
	// silently hollow the claim out.
	meanSvc := float64(controlled.Pool.Busy) / float64(controlled.Pool.Completed())
	capacity := float64(overloadHosts*overloadCores) / meanSvc * float64(time.Second)
	goodputRate := float64(controlled.Pool.Completed()) / controlled.Pool.Duration.Seconds()

	res.Notes = append(res.Notes,
		fmt.Sprintf("open loop at %.1fx capacity (~%s offered vs ~%s served/s): uncontrolled, every request is eventually answered but only %.1f%% inside its 20ms deadline; controlled, %.1f%% of capacity flows as in-deadline completions",
			overloadRate/capacity, krps(overloadRate), krps(capacity), 100*uncontrolledInDl, 100*goodputRate/capacity),
		fmt.Sprintf("controlled interactive p99 %v (uncontrolled %v): expiry at door and queue drops work nobody waits for before any service time is charged",
			controlled.Pool.Latency.Quantile(0.99).Round(time.Microsecond), uncontrolled.Pool.Latency.Quantile(0.99).Round(time.Millisecond)),
		fmt.Sprintf("staged shedding: %d batch vs %d interactive sheds on the 30/70 mix — batch absorbs the overload so interactive barely sheds",
			priority.ShedBatch, priority.Shed-priority.ShedBatch),
		fmt.Sprintf("brownout served %d vs %d plain under identical load by degrading %d responses instead of shedding them",
			browned.Pool.Completed(), int(float64(sideRequests)*float64(controlled.Pool.Completed())/float64(controlled.Offered)), browned.Pool.Browned),
		fmt.Sprintf("retry storm: partition drove %d retries unthrottled; the token bucket cut that to %d (%d throttled) without losing goodput (%.3f vs %.3f)",
			storm.Retried, throttled.Retried, throttled.Throttled, storm.Goodput(), throttled.Goodput()),
		fmt.Sprintf("armed-but-idle control byte-identical to the unarmed serve: %v", identical),
		"accounting: offered = served + expired + shed + failed holds on every row; expired and shed requests got a cheap priced answer (504/503) at the door, never silence",
	)

	if !identical {
		return nil, fmt.Errorf("overload: armed-but-idle control diverged from the unarmed serve")
	}
	if goodputRate < overloadGoodputFloor*capacity {
		return nil, fmt.Errorf("overload: controlled goodput %.0f req/s below %.0f%% of measured capacity %.0f req/s",
			goodputRate, 100*overloadGoodputFloor, capacity)
	}
	if p99 := controlled.Pool.Latency.Quantile(0.99); p99 > overloadDeadline {
		return nil, fmt.Errorf("overload: controlled p99 %v exceeds the %v interactive deadline", p99, overloadDeadline)
	}
	if uncontrolledInDl > 0.5*controlledInDl {
		return nil, fmt.Errorf("overload: uncontrolled in-deadline goodput %.3f did not collapse vs controlled %.3f",
			uncontrolledInDl, controlledInDl)
	}
	if intShed := priority.Shed - priority.ShedBatch; priority.ShedBatch <= 3*intShed {
		return nil, fmt.Errorf("overload: staged shedding not staged (batch=%d interactive=%d)", priority.ShedBatch, intShed)
	}
	if browned.Pool.Browned == 0 {
		return nil, fmt.Errorf("overload: brownout never engaged")
	}
	if throttled.Throttled == 0 || throttled.Retried >= storm.Retried/2 {
		return nil, fmt.Errorf("overload: throttle ineffective (retried %d vs %d, throttled %d)",
			throttled.Retried, storm.Retried, throttled.Throttled)
	}
	for _, rep := range []*ukcluster.Report{uncontrolled, controlled, browned, priority, storm, throttled, slow} {
		if rep.Dropped() != 0 {
			return nil, fmt.Errorf("overload: %d requests unaccounted for", rep.Dropped())
		}
	}
	return res, nil
}
