package experiments

import (
	"fmt"
	"reflect"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukpool"
)

func init() {
	register("cluster", "Multi-host cluster serving: front-door routing, autoscaling and snapshot-image handoff", clusterServe)
}

// clusterRequests is the headline trace size: the control-plane claim
// (route, spill, hand off, drain — without dropping anything) has to
// hold at the scale a real front door sees, so the main row pushes ten
// million requests through an eight-host cluster.
const clusterRequests = 10_000_000

// clusterServe scales the serving story across hosts: a fleet of
// simulated machines, each running its own snapshot-forked nginx pool,
// behind the ukcluster front door. One headline diurnal+flash-crowd
// trace of ten million requests over eight hosts, policy-comparison
// rows at two million, and a handoff-vs-remote-cold-boot pair that
// prices what shipping the template image buys at spill time.
func clusterServe(env *Env) (*Result, error) {
	bootCfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return nil, err
	}

	// Each host owns a boot context (its own arena) and a fork-boot
	// pool with its template — host-distinct deterministic seeds, the
	// same builder and derivation the public SDK uses.
	hostPool := func(host int) (*ukpool.Pool, error) {
		ctx, err := ukboot.NewContext(bootCfg)
		if err != nil {
			return nil, err
		}
		return ukpool.NewFleet(ctx, ukpool.HostMachines(0, host), true, burstFleetOpts()...)
	}

	// The handoff ships the template's boot write-set; the no-handoff
	// alternative re-mints the template remotely.
	handoff, err := probeHandoff(env, bootCfg)
	if err != nil {
		return nil, err
	}
	remoteCold := ukcluster.Activation{ColdBoot: handoff.ColdBoot}

	// The trace: a diurnal swing with a flash crowd burning at ~6x the
	// initial two hosts' capacity (~85K req/s at ~47us/request over
	// 2 hosts x 2 cores), forcing spill-driven activations mid-trace
	// and drains after the crowd passes.
	trace := func(n int) ukpool.Workload {
		total := time.Duration(n/65_000) * time.Second // keep the shape across sizes
		return ukpool.NewDiurnal(41, 40_000, 90_000, total,
			total/5, total/8, 500_000, 4096, n, 256)
	}

	serve := func(policy ukcluster.Policy, act ukcluster.Activation, hosts, active, n int) (*ukcluster.Report, error) {
		c, err := ukcluster.New(ukcluster.Config{
			Hosts: hosts, Cores: 2, InitialActive: active, MinActive: active,
			Policy: policy, NewPool: hostPool,
			EstService: 47 * time.Microsecond,
			Activation: act,
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Serve(trace(n))
	}

	res := &Result{
		ID: "cluster", Title: Title("cluster"),
		Headers: []string{"configuration", "hosts", "requests", "served",
			"warm-hit", "peak-active", "activations", "handoffs", "drains",
			"requeued", "dropped", "act-p50", "route-p99", "lat-p50", "lat-p99"},
	}
	row := func(name string, rep *ukcluster.Report) {
		actP50 := "-"
		if rep.Activation.Count > 0 {
			actP50 = rep.Activation.Quantile(0.5).Round(time.Microsecond).String()
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", rep.Hosts),
			fmt.Sprintf("%d", rep.Offered),
			fmt.Sprintf("%d", rep.Pool.Requests),
			fmt.Sprintf("%.2f%%", 100*rep.Pool.WarmHitRatio()),
			fmt.Sprintf("%d", rep.ActivePeak),
			fmt.Sprintf("%d", rep.Activations),
			fmt.Sprintf("%d", rep.Handoffs),
			fmt.Sprintf("%d", rep.Drains),
			fmt.Sprintf("%d", rep.Requeued),
			fmt.Sprintf("%d", rep.Dropped()),
			actP50,
			rep.Route.Quantile(0.99).Round(time.Microsecond).String(),
			rep.Pool.Latency.Quantile(0.5).Round(time.Microsecond).String(),
			rep.Pool.Latency.Quantile(0.99).Round(time.Microsecond).String(),
		})
	}

	headline, err := serve(ukcluster.LeastLoaded, handoff, 8, 2, clusterRequests)
	if err != nil {
		return nil, err
	}
	row("diurnal-flash-10M/least-loaded+handoff", headline)

	const policyRequests = 2_000_000
	policyRows := []struct {
		name   string
		policy ukcluster.Policy
		act    ukcluster.Activation
	}{
		{"diurnal-flash-2M/least-loaded+handoff", ukcluster.LeastLoaded, handoff},
		{"diurnal-flash-2M/round-robin+handoff", ukcluster.RoundRobin, handoff},
		{"diurnal-flash-2M/hash+handoff", ukcluster.ConsistentHash, handoff},
		{"diurnal-flash-2M/least-loaded+remote-cold", ukcluster.LeastLoaded, remoteCold},
	}
	var handoffRep, coldRep *ukcluster.Report
	for _, pr := range policyRows {
		rep, err := serve(pr.policy, pr.act, 8, 2, policyRequests)
		if err != nil {
			return nil, err
		}
		row(pr.name, rep)
		switch pr.name {
		case "diurnal-flash-2M/least-loaded+handoff":
			handoffRep = rep
		case "diurnal-flash-2M/least-loaded+remote-cold":
			coldRep = rep
		}
	}

	// The degenerate cluster: one host, no front door — must be
	// byte-identical to serving the same trace through the host's pool
	// directly. This is the contract that makes the cluster layer free
	// until there is something to cluster.
	soloPool, err := hostPool(0)
	if err != nil {
		return nil, err
	}
	soloRep, err := soloPool.ServeParallel(trace(200_000), 2)
	if err != nil {
		return nil, err
	}
	soloPool.Close()
	one, err := serve(ukcluster.LeastLoaded, ukcluster.Activation{}, 1, 1, 200_000)
	if err != nil {
		return nil, err
	}
	identical := reflect.DeepEqual(*soloRep, one.Pool)

	// Per-host utilization spread on the headline run: the balancing
	// claim in one line.
	minU, maxU := 1.0, 0.0
	for _, h := range headline.PerHost {
		if h.Utilization < minU {
			minU = h.Utilization
		}
		if h.Utilization > maxU {
			maxU = h.Utilization
		}
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("headline: %d requests over %d hosts x 2 cores, %d activated under the flash crowd, dropped=%d (the cluster queues, never sheds)",
			headline.Offered, headline.Hosts, headline.Activations, headline.Dropped()),
		fmt.Sprintf("per-host utilization on the headline run spans %.1f%%..%.1f%% of a host's 2 cores", 100*minU, 100*maxU),
		fmt.Sprintf("handoff ships %s of template write-set per activation (act-p50 %v) vs re-minting remotely (act-p50 %v) — measured, not assumed",
			fmtBytes(handoff.ImageBytes), handoffRep.Activation.Quantile(0.5).Round(time.Microsecond),
			coldRep.Activation.Quantile(0.5).Round(time.Microsecond)),
		fmt.Sprintf("hosts=1 cluster report byte-identical to Pool.Serve on the same trace: %v", identical),
		"paper: no multi-host evaluation exists in the source paper; this experiment extends its single-host serving claims (Fig 10/14 boot economics) to a cluster control plane — disagreement with any external baseline should be read as model, not measurement",
	)
	if !identical {
		return nil, fmt.Errorf("cluster: hosts=1 report diverged from plain Pool.Serve")
	}
	if headline.Dropped() != 0 {
		return nil, fmt.Errorf("cluster: headline run dropped %d requests", headline.Dropped())
	}
	return res, nil
}

// probeHandoff prices snapshot-handoff activation from a probe capture
// of the template bootCfg boots.
func probeHandoff(env *Env, bootCfg ukboot.Config) (ukcluster.Activation, error) {
	ctx, err := ukboot.NewContext(bootCfg)
	if err != nil {
		return ukcluster.Activation{}, err
	}
	probe, err := ctx.Snapshot(env.NewMachine())
	if err != nil {
		return ukcluster.Activation{}, err
	}
	defer probe.Close()
	return ukcluster.HandoffActivation(probe), nil
}

// fmtBytes renders a byte count at KiB/MiB granularity for notes.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
