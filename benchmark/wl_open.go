package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"unikraft"
	"unikraft/internal/ukpool"
)

// openLoop describes an open-loop workload: a trace, a serving system
// built through the SDK, a deadline every request carries and the
// latency limit the max-rate search holds the 99th percentile to.
type openLoop struct {
	front    layer // the layer Serve is charged to: ukpool, or ukcluster in front of it
	requests int
	deadline time.Duration
	p99Limit time.Duration
	spec     unikraft.Spec
	trace    func(seed uint64, n int, digest *fnv64) *arrivalTrace
	// serve builds the system for t and serves it. built is called once
	// the system stands and before the first request is offered.
	serve func(rt *unikraft.Runtime, ol *openLoop, seed uint64, t *arrivalTrace, built func(), extra ...unikraft.PoolOption) (*served, error)
}

// served is one serve's reports.
type served struct {
	pool    *unikraft.ServeReport   // merged over hosts for a cluster
	cluster *unikraft.ClusterReport // nil for a single pool
}

// verdict is what the end-to-end metrics and the max-rate search read
// off a serve.
type verdict struct {
	offered, ok, unaccounted int
	rps, okFrac              float64
	meanUs, p99Us            float64
	backlog                  time.Duration // last completion after the last arrival
}

func (ol *openLoop) judge(t *arrivalTrace, s *served) verdict {
	p := s.pool
	v := verdict{offered: len(t.reqs)}
	// In deadline: the pool drops what expires before service, but a
	// request picked up just in time still finishes late; the latency
	// histogram says how many did (at its bucket resolution).
	v.ok = int(math.Round(p.Latency.FractionBelow(ol.deadline) * float64(p.Latency.Count)))
	v.okFrac = float64(v.ok) / float64(v.offered)
	if p.Duration > 0 {
		v.rps = float64(v.ok) / p.Duration.Seconds()
	}
	if p.Latency.Count > 0 {
		v.meanUs = float64(p.Latency.Sum) / float64(p.Latency.Count) / 1e3
		v.p99Us = quantileUs(&p.Latency, 0.99)
	}
	v.backlog = p.Duration - t.last()
	// Conservation: every offered request is completed, failed, expired
	// or shed — and every completion left exactly one latency sample.
	accepted := v.offered
	if c := s.cluster; c != nil {
		v.unaccounted += abs(c.Offered-v.offered) + abs(c.Dropped())
		accepted = c.Offered - c.Shed - c.Failed - c.Expired
	}
	v.unaccounted += abs(p.Requests-accepted) + abs(int(p.Latency.Count)-p.Completed())
	return v
}

// quantileUs reads quantile q off a ukpool.Histogram in microseconds.
// Histogram.Quantile answers with the lower bound of the bucket the
// rank falls in, and buckets are ~12% wide (eight per power of two), so
// a tail that drifts by a percent would either not move the answer or
// move it by 12%. Interpolating by rank inside the bucket gives a
// figure that moves with the tail.
func quantileUs(h *unikraft.ServeHistogram, q float64) float64 {
	lo := h.Quantile(q)
	if lo <= 8 || lo == h.MaxV {
		return float64(lo) / 1e3
	}
	width := time.Duration(1) << (bits.Len64(uint64(lo)) - 1 - 3)
	below, through := h.FractionBelow(lo-1), h.FractionBelow(lo)
	if through <= below {
		return float64(lo) / 1e3
	}
	frac := (q - below) / (through - below)
	return (float64(lo) + math.Min(math.Max(frac, 0), 1)*float64(width)) / 1e3
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sustains reports whether the serve met the workload's service level:
// p99 within the limit, at least 99.9% of requests answered in
// deadline, and no backlog left when the trace ended.
func (ol *openLoop) sustains(v verdict) bool {
	return v.p99Us <= float64(ol.p99Limit)/1e3 && v.okFrac >= 0.999 && v.backlog <= ol.p99Limit
}

// run is one repetition of an open loop at the nominal rate.
func (ol *openLoop) run(r *rep) error {
	tr := r.tr
	rt := unikraft.NewRuntime()
	defer rt.Close()
	n := r.n(ol.requests)
	tr.enter(lWorkload, "generate trace")
	t0 := time.Now()
	t := ol.trace(r.seed, n, &r.out.digest)
	genNs := time.Since(t0)
	tr.exit()

	var extra []unikraft.PoolOption
	if tr != nil {
		extra = append(extra, ukpool.WithEngine(r.loops.new))
	}
	var serveStart time.Time
	tr.enter(ol.front, "build")
	s, err := ol.serve(rt, ol, r.seed, t, func() {
		tr.exit()
		r.clock.startTimed()
		tr.enter(ol.front, "Serve")
		serveStart = time.Now()
	}, extra...)
	serveNs := time.Since(serveStart)
	tr.exit()
	if err != nil {
		return err
	}
	r.clock.stopTimed()

	v := ol.judge(t, s)
	out := &r.out
	out.attempted, out.failures, out.samples = v.offered, v.unaccounted, int(s.pool.Latency.Count)
	out.sim[mRPS], out.sim[mOKFrac] = v.rps, v.okFrac
	out.sim[mMeanUs], out.sim[mP99Us] = v.meanUs, v.p99Us
	img, err := rt.Build(ol.spec)
	if err != nil {
		return err
	}
	// The boots requests waited on: cold boots for a pool, snapshot
	// forks for the cluster (every boot of a spec takes the same time).
	if err := specMetrics(rt, ol.spec, img, s.pool.Boot.Quantile(0.5), out.sim); err != nil {
		return err
	}
	if tr != nil {
		return ol.layers(r, t, s, float64(genNs), float64(serveNs))
	}
	return nil
}

// layers fills the per-layer metrics of a traced open-loop repetition.
func (ol *openLoop) layers(r *rep, t *arrivalTrace, s *served, genNs, serveNs float64) error {
	out, p, n := r.out.layer, s.pool, float64(len(t.reqs))
	out["workload.host_ns_per_req"] = genNs / n

	// One more guest, built and booted by hand, prices a build and a
	// boot on the host and splits the boot's simulated time.
	r.tr.setReq(fullSpanRequests) // aggregates only
	g, err := bootGuest(r, ol.spec)
	if err != nil {
		return err
	}
	if ol.spec.SnapshotBoot {
		// The first Run minted the template; time a fork.
		g.inst.Close()
		t0 := time.Now()
		if g.inst, err = g.rt.Run(ol.spec); err != nil {
			return err
		}
		g.bootNs = int64(time.Since(t0)) - g.buildNs
	}
	g.bootLayers(out)
	g.inst.Close()
	g.rt.Close()
	out["ukboot.boots"] = float64(p.Boot.Count)
	out["ukboot.forks"] = float64(p.ForkBoots)

	// Engines: handlers are the pool's code, the rest of Run is the
	// engine's.
	var events uint64
	var runNs, handlerNs int64
	maxPending := 0
	first, last := int64(math.MaxInt64), int64(0)
	for _, l := range r.loops.loops {
		events += l.Loop.Dispatched()
		runNs += l.runNs
		handlerNs += l.tr.agg[lUkpool].selfNs
		if l.maxPending > maxPending {
			maxPending = l.maxPending
		}
		if l.runNs > 0 {
			first, last = min(first, l.startNs), max(last, l.endNs)
		}
		r.out.tracers = append(r.out.tracers, l.tr)
	}
	r.out.tracers = append(r.out.tracers, r.tr)
	out["sim.events_per_req"] = float64(events) / n
	out["sim.host_ns_per_event"] = float64(runNs-handlerNs) / float64(events)
	out["sim.max_pending"] = float64(maxPending)
	out["ukpool.host_ns_per_req"] = float64(handlerNs) / n

	done := float64(p.Completed())
	out["ukpool.sim_service_us"] = float64(p.Busy) / done / 1e3
	out["ukpool.warm_hit_frac"] = p.WarmHitRatio()
	out["ukpool.queued_frac"] = float64(p.Queued) / float64(p.Requests)
	out["ukpool.cold_boots"] = float64(p.ColdBoots)
	out["ukpool.peak_instances"] = float64(p.PeakInstances)
	out["ukpool.scale_ups"] = float64(p.ScaleUps)
	out["ukpool.scale_downs"] = float64(p.ScaleDowns)
	out["ukpool.resets"] = float64(p.Resets)
	out["ukpool.expired"] = float64(p.Expired)
	out["ukpool.failed"] = float64(p.Failed)
	out["ukpool.retried"] = float64(p.Retried)
	out["ukpool.crashes"] = float64(p.Crashes)
	out["ukpool.utilization"] = float64(p.Busy) / (float64(p.Duration) * float64(p.PeakInstances))
	out["ukfault.vm_crashes"] = float64(p.Crashes)

	c := s.cluster
	if c == nil {
		return nil
	}
	// The router's pass is what Serve spends outside the host loops.
	out["ukcluster.host_ns_per_req"] = (serveNs - float64(last-first)) / n
	out["ukcluster.sim_route_mean_us"] = float64(c.Route.Mean()) / 1e3
	out["ukcluster.sim_route_p99_us"] = float64(c.Route.Quantile(0.99)) / 1e3
	out["ukcluster.sim_activation_us"] = float64(c.Activation.Mean()) / 1e3
	out["ukcluster.activations"] = float64(c.Activations)
	out["ukcluster.handoff_kb"] = float64(c.HandoffBytes) / 1e3
	out["ukcluster.drains"] = float64(c.Drains)
	out["ukcluster.requeued"] = float64(c.Requeued)
	out["ukcluster.retried"] = float64(c.Retried)
	out["ukcluster.failed"] = float64(c.Failed)
	out["ukcluster.shed"] = float64(c.Shed)
	out["ukcluster.expired"] = float64(c.Expired)
	out["ukcluster.throttled"] = float64(c.Throttled)
	out["ukcluster.dropped"] = float64(c.Dropped())
	out["ukcluster.active_peak"] = float64(c.ActivePeak)
	lo, hi, sum := math.Inf(1), 0.0, 0.0
	for _, h := range c.PerHost {
		lo, hi, sum = math.Min(lo, h.Utilization), math.Max(hi, h.Utilization), sum+h.Utilization
	}
	if sum > 0 {
		mean := sum / float64(len(c.PerHost))
		out["ukpool.utilization"] = mean
		out["ukcluster.util_spread"] = (hi - lo) / mean
	}
	out["ukfault.host_crashes"] = float64(c.Crashes)
	out["ukfault.probes"] = float64(c.Probes)
	out["ukfault.replacements"] = float64(c.Replacements)
	return nil
}

// maxRate finds the highest offered rate the system sustains, to within
// 1%, between a quarter of and four times the nominal rate. Each probe
// offers one trace compressed in time: the workload's own generator and
// seed at a quarter of the length, because a search is ten serves and
// the full trace would spend most of a run here.
func (ol *openLoop) maxRate(seed uint64, scale float64) (float64, error) {
	var digest fnv64
	nominal := ol.trace(seed, scaled(ol.requests/4, scale), &digest)
	try := func(factor float64) (bool, error) {
		t := nominal.compressed(factor)
		rt := unikraft.NewRuntime()
		defer rt.Close()
		s, err := ol.serve(rt, ol, seed, t, func() {})
		if err != nil {
			return false, err
		}
		return ol.sustains(ol.judge(t, s)), nil
	}
	const floor, ceil = 0.25, 4.0
	rate := func(factor float64) float64 {
		return float64(len(nominal.reqs)) * factor / nominal.last().Seconds()
	}
	// Bracket by doubling from the nominal rate, then bisect the ratio.
	lo, hi := 1.0, 1.0
	ok, err := try(1)
	if err != nil {
		return 0, err
	}
	for ok && hi < ceil {
		lo, hi = hi, hi*2
		if ok, err = try(hi); err != nil {
			return 0, err
		}
	}
	if ok {
		return rate(ceil), nil // sustained everywhere in range
	}
	for lo == hi && lo > floor { // nominal failed: search downwards
		lo /= 2
		if ok, err = try(lo); err != nil {
			return 0, err
		}
		if !ok {
			hi = lo
		}
	}
	if lo == hi {
		return rate(floor), nil // not sustained anywhere in range: report the floor
	}
	for hi/lo > 1.01 {
		mid := math.Sqrt(lo * hi)
		if ok, err = try(mid); err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rate(lo), nil
}

// --- pool-bursty ------------------------------------------------------------

// serviceCycles is the application work per request on both open
// loops: ~42 µs, so a 600K req/s burst needs ~25 instances.
const serviceCycles = 150_000

var poolBursty = &openLoop{
	front:    lUkpool,
	requests: 500_000,
	deadline: 5 * time.Millisecond,
	p99Limit: 5 * time.Millisecond,
	spec:     specFor("nginx", unikraft.WithVMM("firecracker"), unikraft.WithMemory(8<<20)),
	trace: func(seed uint64, n int, digest *fnv64) *arrivalTrace {
		return burstyTrace(seed, n, 60_000, 600_000, 200*time.Millisecond, 0.2, digest)
	},
	serve: func(rt *unikraft.Runtime, ol *openLoop, seed uint64, t *arrivalTrace, built func(), extra ...unikraft.PoolOption) (*served, error) {
		opts := append([]unikraft.PoolOption{
			unikraft.WithPoolWarm(4), unikraft.WithPoolMaxInstances(48),
			unikraft.WithPoolServiceCost(4, serviceCycles),
			unikraft.WithPoolDeadline(ol.deadline),
		}, extra...)
		pool, err := rt.NewPool(ol.spec, opts...)
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		built()
		rep, err := pool.Serve(unikraft.TraceWorkload(t.reqs))
		if err != nil {
			return nil, err
		}
		return &served{pool: rep}, nil
	},
}

// --- cluster-chaos ----------------------------------------------------------

var clusterChaos = &openLoop{
	front:    lUkcluster,
	requests: 500_000,
	deadline: 20 * time.Millisecond,
	p99Limit: 2 * time.Millisecond,
	spec: specFor("nginx", unikraft.WithVMM("firecracker"), unikraft.WithMemory(8<<20),
		unikraft.WithSnapshotBoot(), unikraft.WithAffinity("least-loaded")),
	trace: func(seed uint64, n int, digest *fnv64) *arrivalTrace {
		return diurnalTrace(seed, n, 16, 80_000, 150_000, 300_000, 0.55, 0.08, 1024, digest)
	},
	serve: func(rt *unikraft.Runtime, ol *openLoop, seed uint64, t *arrivalTrace, built func(), extra ...unikraft.PoolOption) (*served, error) {
		// One of the two serving hosts fail-stops 40% of the way through
		// the trace: a point on the trace, so it moves with it when the
		// max-rate search compresses time. Deadlines, probe periods and
		// boot times are the system's own and do not.
		plan := unikraft.NewFaultPlan(seed).
			CrashHost(1, time.Duration(0.4*float64(t.span))).
			WithVMHazard(1e-4)
		pool := append([]unikraft.PoolOption{
			unikraft.WithPoolWarm(4), unikraft.WithPoolMaxInstances(6),
			unikraft.WithPoolServiceCost(4, serviceCycles),
		}, extra...)
		c, err := rt.NewCluster(ol.spec,
			unikraft.WithHosts(4), unikraft.WithCoresPerHost(2), unikraft.WithActiveHosts(2),
			unikraft.WithFaultPlan(plan), unikraft.WithRetryPolicy(3, 250*time.Microsecond, 0),
			unikraft.WithDeadline(ol.deadline), unikraft.WithAdmission(time.Millisecond),
			unikraft.WithHostPoolOptions(pool...))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		built()
		rep, err := c.Serve(unikraft.TraceWorkload(t.reqs))
		if err != nil {
			return nil, fmt.Errorf("cluster serve: %w", err)
		}
		return &served{pool: &rep.Pool, cluster: rep}, nil
	},
}
