package ukpool

import (
	"fmt"
	"time"
)

// Report is the outcome of one Serve run.
type Report struct {
	// Requests is the number of requests the pool accepted. Without
	// faults every one of them completes (the pool never drops, it
	// queues); with faults Requests = completions + Failed.
	Requests int
	// WarmHits counts requests dispatched immediately to an idle warm
	// instance; ColdBoots counts requests that paid a full boot;
	// Queued counts requests that waited for an instance to free up.
	WarmHits, ColdBoots, Queued int
	// ForkBoots counts instantiations (warm floor, demand cold boots and
	// scale-ups alike) that went through the snapshot-fork path instead
	// of the full boot pipeline.
	ForkBoots int
	// Resets counts warm-instance heap recycles; Retired counts
	// instances the autoscaler shut down.
	Resets, Retired int
	// Failed counts requests lost for good: crashed more than
	// crashRetries times, or outstanding (in service, queued, waiting
	// on a boot, or still undelivered) when a fail-stop cutoff killed
	// the host. Retried counts crash-triggered re-dispatches — a
	// request that crashes twice and then completes adds 2 to Retried,
	// 1 to completions, 0 to Failed.
	Failed, Retried int
	// Crashes counts mid-request instance crashes; BreakerTrips counts
	// instances the circuit breaker retired after repeated crashes.
	Crashes, BreakerTrips int
	// Expired counts requests dropped because their deadline passed
	// before an instance picked them up — no service time was charged
	// for them. Distinct from Failed (lost to faults) and from the
	// cluster's Shed (refused by admission before reaching a host).
	Expired int
	// Browned counts service windows started in degraded (brownout)
	// mode: RequestWork skipped, application work halved.
	Browned int
	// ScaleUps and ScaleDowns count autoscaler resize decisions.
	ScaleUps, ScaleDowns int
	// PeakInstances is the largest fleet observed; FinalInstances the
	// fleet left warm when the trace drained. Under ServeParallel both
	// are summed across shards.
	PeakInstances, FinalInstances int
	// Duration is the virtual makespan: first arrival to last
	// completion.
	Duration time.Duration
	// Busy is the total service time across all completed requests —
	// the fleet's aggregate busy-clock. Utilization over a run is
	// Busy / (Duration x serving capacity); the cluster layer reports
	// it per host.
	Busy time.Duration
	// Boot holds per-boot total times (prewarm, cold and scale-up
	// boots); Latency holds end-to-end request latencies (queue wait +
	// boot wait + service).
	Boot Histogram
	// ColdBoot holds only the demand-driven cold instantiations —
	// the boots a request actually waited on — so serve reports quote
	// cold-start p50/p99 separately from prewarm and scale-up boots.
	ColdBoot Histogram
	// Latency holds end-to-end request latencies.
	Latency Histogram
	// Series, when Config.SeriesWindow > 0, holds one latency histogram
	// per completion-time window: Series[i] covers completions in
	// [i*W, (i+1)*W). Shard merges are element-wise (all shards share
	// the virtual timeline), so the merged series is the cluster-wide
	// latency timeline the chaos experiment reads recovery time off.
	// A window costs the span of latency buckets it saw, so a long
	// trace's series stays proportional to its windows' spread.
	Series []Histogram
}

// Completed is Requests minus Failed minus Expired — the requests that
// actually got a response.
func (r *Report) Completed() int { return r.Requests - r.Failed - r.Expired }

// WarmHitRatio is WarmHits / Requests, the pool's headline number.
func (r *Report) WarmHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.WarmHits) / float64(r.Requests)
}

// Throughput is Requests per second of virtual makespan.
func (r *Report) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// Merge folds another report's aggregates into r: counters add,
// histograms merge bucket-wise, and the makespan is the max. Used by
// ServeParallel for the deterministic shard merge.
func (r *Report) Merge(o *Report) {
	r.Requests += o.Requests
	r.WarmHits += o.WarmHits
	r.ColdBoots += o.ColdBoots
	r.ForkBoots += o.ForkBoots
	r.Queued += o.Queued
	r.Resets += o.Resets
	r.Retired += o.Retired
	r.Failed += o.Failed
	r.Retried += o.Retried
	r.Crashes += o.Crashes
	r.BreakerTrips += o.BreakerTrips
	r.Expired += o.Expired
	r.Browned += o.Browned
	r.ScaleUps += o.ScaleUps
	r.ScaleDowns += o.ScaleDowns
	r.PeakInstances += o.PeakInstances
	r.FinalInstances += o.FinalInstances
	if o.Duration > r.Duration {
		r.Duration = o.Duration
	}
	r.Busy += o.Busy
	r.Boot.merge(&o.Boot)
	r.ColdBoot.merge(&o.ColdBoot)
	r.Latency.merge(&o.Latency)
	for len(r.Series) < len(o.Series) {
		r.Series = append(r.Series, Histogram{})
	}
	for i := range o.Series {
		r.Series[i].merge(&o.Series[i])
	}
}

// String renders the multi-line summary ukserve prints.
func (r *Report) String() string {
	routing := fmt.Sprintf("routing  warm=%d (%.2f%%) cold=%d queued=%d",
		r.WarmHits, 100*r.WarmHitRatio(), r.ColdBoots, r.Queued)
	if r.ForkBoots > 0 {
		routing += fmt.Sprintf(" forked=%d", r.ForkBoots)
	}
	out := fmt.Sprintf(
		"served   %d requests in %v (%.0f req/s)\n"+
			"%s\n"+
			"fleet    peak=%d final=%d scale-ups=%d scale-downs=%d retired=%d resets=%d\n"+
			"boot     %v\n",
		r.Requests, r.Duration.Round(time.Microsecond), r.Throughput(),
		routing,
		r.PeakInstances, r.FinalInstances, r.ScaleUps, r.ScaleDowns, r.Retired, r.Resets,
		&r.Boot)
	if r.ColdBoot.Count > 0 {
		out += fmt.Sprintf("coldboot %v\n", &r.ColdBoot)
	}
	if r.Crashes > 0 || r.Failed > 0 || r.Retried > 0 {
		out += fmt.Sprintf("faults   crashes=%d retried=%d failed=%d breaker-trips=%d\n",
			r.Crashes, r.Retried, r.Failed, r.BreakerTrips)
	}
	if r.Expired > 0 || r.Browned > 0 {
		out += fmt.Sprintf("overload expired=%d browned=%d\n", r.Expired, r.Browned)
	}
	return out + fmt.Sprintf("latency  %v", &r.Latency)
}
