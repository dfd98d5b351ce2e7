// Command ukserve drives the warm-pool serving layer: it builds one
// spec, boots a pool of unikernel instances over it and pushes a
// synthetic traffic trace (Poisson or bursty, millions of requests)
// through the fleet, printing the serve report.
//
// With -hosts N (N > 1) it serves through the cluster layer instead:
// N simulated hosts behind the front-door router, each with its own
// pool, spilling to standby hosts under load via snapshot handoff.
//
//	ukserve                                    1M-request steady default
//	ukserve -requests 5000000 -rate 400000     heavier steady load
//	ukserve -trace bursty -burst-rate 500000   on/off load, autoscaler working
//	ukserve -hosts 8 -active 2 -fork \
//	        -affinity least-loaded -trace diurnal   flash crowd over a cluster
//	ukserve -vcpus 4 -queues 4                 SMP guests: 4 cores, 4 NIC queue pairs
//	ukserve -profile fastpath                  named option profile (zero-copy + batching + forks)
//	ukserve -json                              machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"unikraft"
)

func main() {
	var (
		app    = flag.String("app", "nginx", "application profile to serve")
		vmm    = flag.String("vmm", "firecracker", "monitor: qemu, qemu-microvm, firecracker, solo5-hvt, xl")
		alloc  = flag.String("alloc", "", "ukalloc backend override (profile default if empty)")
		memMB  = flag.Int("mem", 8, "guest memory per instance, MiB")
		fork   = flag.Bool("fork", false, "snapshot-fork instantiation: boot one template, clone the fleet copy-on-write")
		stages = flag.Bool("stages", false, "staged init tables: independent boot constructors charge max, not sum")
		vcpus  = flag.Int("vcpus", 0, "guest vCPUs per instance (0 = single core)")
		queues = flag.Int("queues", 0, "NIC TX/RX queue pairs per instance (0 = one pair)")
		prof   = flag.String("profile", "", "apply a named option profile first (see unikraft.Profiles)")

		hosts     = flag.Int("hosts", 1, "cluster size; >1 serves through the front-door router")
		cores     = flag.Int("cores", 0, "event-loop shards per host (0 = guest vCPU count)")
		active    = flag.Int("active", 0, "hosts active from the start (default all)")
		minActive = flag.Int("min-active", 1, "scale-down floor")
		affinity  = flag.String("affinity", "", "front-door policy: least-loaded, round-robin, hash")
		placement = flag.String("placement", "", "autoscale bias: spread (default) or pack")
		noHandoff = flag.Bool("no-handoff", false, "activate standby hosts by remote cold mint instead of snapshot handoff")

		warm      = flag.Int("warm", 8, "warm-instance floor")
		maxInst   = flag.Int("max", 256, "fleet cap")
		coldBurst = flag.Int("cold-burst", 32, "max cold boots in flight")
		window    = flag.Duration("window", 50*time.Millisecond, "autoscaler window (virtual time)")
		p99       = flag.Duration("p99", 2*time.Millisecond, "latency SLO driving scale-ups")
		noScale   = flag.Bool("no-autoscale", false, "pin the warm set at the floor")

		requests  = flag.Int("requests", 1_000_000, "trace length")
		rate      = flag.Float64("rate", 250_000, "arrival rate, requests/second")
		bytes     = flag.Int("bytes", 256, "request payload size")
		seed      = flag.Uint64("seed", 1, "trace seed")
		trace     = flag.String("trace", "poisson", "trace shape: poisson, bursty, diurnal or overload")
		burstRate = flag.Float64("burst-rate", 0, "bursty/diurnal: burst or flash-crowd rate (default 10x -rate)")
		period    = flag.Duration("period", 200*time.Millisecond, "bursty: on/off period")
		duty      = flag.Float64("duty", 0.2, "bursty: burst fraction of each period")
		day       = flag.Duration("day", 2*time.Second, "diurnal: sinusoid period (the virtual day)")
		peakRate  = flag.Float64("peak-rate", 0, "diurnal: daily peak rate (default 2x -rate)")
		flashAt   = flag.Duration("flash-at", 250*time.Millisecond, "diurnal: flash-crowd start")
		flashDur  = flag.Duration("flash-dur", 300*time.Millisecond, "diurnal: flash-crowd length")
		sessions  = flag.Int("sessions", 1024, "diurnal: session-key population (keys drive hash affinity)")

		syscalls  = flag.Int("syscalls", 4, "shim syscalls per request")
		appCycles = flag.Uint64("app-cycles", 12_000, "application cycles per request")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")

		deadline      = flag.Duration("deadline", 0, "end-to-end request deadline; expired requests are dropped unserved (0 = none)")
		priorityMix   = flag.Float64("priority-mix", 1, "overload trace: interactive share of traffic in [0,1]; the rest is batch")
		admission     = flag.Duration("admission", 0, "front-door adaptive admission: queue-delay target (0 = off; clusters only)")
		retryThrottle = flag.Float64("retry-throttle", 0, "retry token-bucket refill per successful forward (0 = off; clusters only)")
		brownout      = flag.Int("brownout", 0, "queue depth that switches pools to degraded half-work responses (0 = off)")

		chaos       = flag.Bool("chaos", false, "inject a fault plan: crash the last initially-active host at -crash-at (clusters), plus the -hazard VM crash rate")
		crashAt     = flag.Duration("crash-at", 300*time.Millisecond, "chaos: when the host fails (virtual time)")
		rejoin      = flag.Duration("rejoin", 0, "chaos: how long after the crash the host rejoins (0 = never)")
		hazard      = flag.Float64("hazard", 0, "per-request VM crash probability (works with or without -chaos)")
		retries     = flag.Int("retries", 3, "front-door retry limit per lost forward")
		retryBudget = flag.Int("retry-budget", 0, "total front-door retries per trace (0 = unbounded)")
	)
	flag.Parse()
	if err := checkClusterOnly(*hosts, []clusterFlag{
		{"admission", *admission > 0},
		{"retry-throttle", *retryThrottle > 0},
		{"chaos", *chaos},
		{"rejoin", *rejoin > 0},
		{"retry-budget", *retryBudget > 0},
		{"active", *active > 0},
		{"no-handoff", *noHandoff},
	}); err != nil {
		fatal(err)
	}

	rt := unikraft.NewRuntime()
	base := []unikraft.Option{}
	if *prof != "" {
		base = append(base, unikraft.Profile(*prof))
	}
	base = append(base,
		unikraft.WithVMM(*vmm),
		unikraft.WithMemory(*memMB<<20),
		unikraft.WithDCE(), unikraft.WithLTO())
	spec := unikraft.NewSpec(*app, base...)
	if *vcpus > 0 {
		spec = spec.With(unikraft.WithVCPUs(*vcpus))
	}
	if *queues > 0 {
		spec = spec.With(unikraft.WithNetQueues(*queues))
	}
	if *alloc != "" {
		spec = spec.With(unikraft.WithAllocator(*alloc))
	}
	if *fork {
		spec = spec.With(unikraft.WithSnapshotBoot())
	}
	if *stages {
		spec = spec.With(unikraft.WithInitStages())
	}
	if *affinity != "" {
		spec = spec.With(unikraft.WithAffinity(*affinity))
	}
	if *placement != "" {
		spec = spec.With(unikraft.WithPlacement(*placement))
	}

	opts := []unikraft.PoolOption{
		unikraft.WithPoolWarm(*warm),
		unikraft.WithPoolMaxInstances(*maxInst),
		unikraft.WithPoolColdBurst(*coldBurst),
		unikraft.WithPoolScaleWindow(*window),
		unikraft.WithPoolTargetP99(*p99),
		unikraft.WithPoolServiceCost(*syscalls, *appCycles),
	}
	if *noScale {
		opts = append(opts, unikraft.DisablePoolAutoscale())
	}
	if *brownout > 0 {
		opts = append(opts, unikraft.WithPoolBrownout(*brownout))
	}
	if *deadline > 0 && *hosts == 1 {
		// Cluster runs stamp the deadline at the front door instead.
		opts = append(opts, unikraft.WithPoolDeadline(*deadline))
	}
	if *hazard > 0 && *hosts == 1 {
		// Cluster runs get the hazard through the fault plan instead,
		// so each host draws from its own sub-seed.
		opts = append(opts, unikraft.WithPoolCrashHazard(*hazard, *seed))
	}

	var w unikraft.Workload
	switch *trace {
	case "poisson":
		w = unikraft.PoissonWorkload(*seed, *rate, *requests, *bytes)
	case "bursty":
		br := *burstRate
		if br <= 0 {
			br = 10 * *rate
		}
		w = unikraft.BurstyWorkload(*seed, *rate, br, *period, *duty, *requests, *bytes)
	case "diurnal":
		pr := *peakRate
		if pr <= 0 {
			pr = 2 * *rate
		}
		fr := *burstRate
		if fr <= 0 {
			fr = 10 * *rate
		}
		w = unikraft.DiurnalWorkload(*seed, *rate, pr, *day,
			*flashAt, *flashDur, fr, *sessions, *requests, *bytes)
	case "overload":
		w = unikraft.OverloadWorkload(*seed, *rate, *requests, *bytes,
			unikraft.WithPriorityMix(*priorityMix),
			unikraft.WithWorkloadSessions(*sessions))
	default:
		fatal(fmt.Errorf("unknown trace %q (have poisson, bursty, diurnal, overload)", *trace))
	}

	if *hosts > 1 {
		copts := []unikraft.ClusterOption{
			unikraft.WithHosts(*hosts),
			unikraft.WithMinActiveHosts(*minActive),
			unikraft.WithHostPoolOptions(opts...),
		}
		if *cores > 0 {
			copts = append(copts, unikraft.WithCoresPerHost(*cores))
		}
		if *active > 0 {
			copts = append(copts, unikraft.WithActiveHosts(*active))
		}
		if *noHandoff {
			copts = append(copts, unikraft.WithoutHandoff())
		}
		if *deadline > 0 {
			copts = append(copts, unikraft.WithDeadline(*deadline))
		}
		if *admission > 0 {
			copts = append(copts, unikraft.WithAdmission(*admission))
		}
		if *retryThrottle > 0 {
			copts = append(copts, unikraft.WithRetryThrottle(*retryThrottle, 0))
		}
		if *chaos || *hazard > 0 {
			plan := unikraft.NewFaultPlan(*seed)
			if *chaos {
				// Crash the highest-id host that serves from t=0: it is
				// carrying live traffic at the crash, so detection, lost
				// forwards, retries and replacement all have work to do.
				victim := 0
				if *active > 1 {
					victim = *active - 1
				}
				if *rejoin > 0 {
					plan.CrashHostRejoin(victim, *crashAt, *rejoin)
				} else {
					plan.CrashHost(victim, *crashAt)
				}
			}
			if *hazard > 0 {
				plan.WithVMHazard(*hazard)
			}
			copts = append(copts,
				unikraft.WithFaultPlan(plan),
				unikraft.WithRetryPolicy(*retries, 250*time.Microsecond, *retryBudget))
		}
		c, err := rt.NewCluster(spec, copts...)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(w)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emit(clusterJSON(spec, rep))
			return
		}
		fmt.Printf("spec     %s\n%s\n", spec, rep)
		return
	}

	pool, err := rt.NewPool(spec, opts...)
	if err != nil {
		fatal(err)
	}
	defer pool.Close()
	rep, err := pool.Serve(w)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		emit(reportJSON(spec, rep))
		return
	}
	fmt.Printf("spec     %s\n%s\n", spec, rep)
}

// clusterFlag is one flag only the -hosts > 1 branch reads, and whether
// the command line set it.
type clusterFlag struct {
	name string
	set  bool
}

// checkClusterOnly rejects cluster-only flags on a single-host run,
// where they would otherwise be silently ignored.
func checkClusterOnly(hosts int, flags []clusterFlag) error {
	if hosts > 1 {
		return nil
	}
	for _, f := range flags {
		if f.set {
			return fmt.Errorf("-%s needs a cluster: it has no effect with -hosts %d (set -hosts 2 or more)", f.name, hosts)
		}
	}
	return nil
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// reportJSON flattens the report (histograms to percentile summaries)
// for machine consumers.
func reportJSON(spec unikraft.Spec, r *unikraft.ServeReport) map[string]any {
	hist := func(h *unikraft.ServeHistogram) map[string]any {
		return map[string]any{
			"count": h.Count, "min_ns": h.MinV.Nanoseconds(),
			"p50_ns": h.Quantile(0.50).Nanoseconds(),
			"p90_ns": h.Quantile(0.90).Nanoseconds(),
			"p99_ns": h.Quantile(0.99).Nanoseconds(),
			"max_ns": h.MaxV.Nanoseconds(), "mean_ns": h.Mean().Nanoseconds(),
		}
	}
	return map[string]any{
		"spec":           spec.String(),
		"requests":       r.Requests,
		"duration_ns":    r.Duration.Nanoseconds(),
		"throughput_rps": r.Throughput(),
		"warm_hits":      r.WarmHits,
		"warm_hit_ratio": r.WarmHitRatio(),
		"cold_boots":     r.ColdBoots,
		"fork_boots":     r.ForkBoots,
		"queued":         r.Queued,
		"failed":         r.Failed,
		"expired":        r.Expired,
		"browned":        r.Browned,
		"retried":        r.Retried,
		"crashes":        r.Crashes,
		"breaker_trips":  r.BreakerTrips,
		"resets":         r.Resets,
		"retired":        r.Retired,
		"scale_ups":      r.ScaleUps,
		"scale_downs":    r.ScaleDowns,
		"peak_instances": r.PeakInstances,
		"final_warm":     r.FinalInstances,
		"boot":           hist(&r.Boot),
		"coldboot":       hist(&r.ColdBoot),
		"latency":        hist(&r.Latency),
	}
}

// clusterJSON flattens a cluster report: control-plane counters, the
// merged pool section, and the per-host breakdown.
func clusterJSON(spec unikraft.Spec, r *unikraft.ClusterReport) map[string]any {
	perHost := make([]map[string]any, 0, len(r.PerHost))
	for _, h := range r.PerHost {
		perHost = append(perHost, map[string]any{
			"host": h.Host, "requests": h.Requests,
			"warm_hits": h.WarmHits, "cold_boots": h.ColdBoots, "fork_boots": h.ForkBoots,
			"utilization":     h.Utilization,
			"latency_p50_ns":  h.LatencyP50.Nanoseconds(),
			"latency_p99_ns":  h.LatencyP99.Nanoseconds(),
			"activated_at_ns": h.ActivatedAt.Nanoseconds(),
			"drained":         h.Drained,
			"crashed":         h.Crashed,
		})
	}
	return map[string]any{
		"spec":              spec.String(),
		"hosts":             r.Hosts,
		"cores_per_host":    r.Cores,
		"policy":            r.Policy.String(),
		"offered":           r.Offered,
		"dropped":           r.Dropped(),
		"active_start":      r.ActiveStart,
		"active_peak":       r.ActivePeak,
		"active_end":        r.ActiveEnd,
		"activations":       r.Activations,
		"handoffs":          r.Handoffs,
		"remote_cold_boots": r.RemoteColdBoots,
		"handoff_bytes":     r.HandoffBytes,
		"drains":            r.Drains,
		"requeued":          r.Requeued,
		"crashes":           r.Crashes,
		"rejoins":           r.Rejoins,
		"replacements":      r.Replacements,
		"probes":            r.Probes,
		"retried":           r.Retried,
		"failed":            r.Failed,
		"shed":              r.Shed,
		"shed_batch":        r.ShedBatch,
		"expired":           r.Expired,
		"throttled":         r.Throttled,
		"goodput":           r.Goodput(),
		"route_p99_ns":      r.Route.Quantile(0.99).Nanoseconds(),
		"pool":              reportJSON(spec, &r.Pool),
		"per_host":          perHost,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ukserve:", err)
	os.Exit(1)
}
