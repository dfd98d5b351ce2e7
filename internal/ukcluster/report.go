package ukcluster

import (
	"fmt"
	"strings"
	"time"

	"unikraft/internal/ukpool"
)

// Report is what a cluster serve measured: the merged pool report
// (end-to-end latencies, measured from the client-side arrival at the
// front door), the control-plane counters, and a per-host breakdown.
type Report struct {
	// Hosts and Cores echo the cluster shape; Policy the balancing
	// policy the front door ran.
	Hosts, Cores int
	Policy       Policy

	// Offered is how many requests the front door consumed from the
	// workload. The cluster queues rather than drops, so
	// Pool.Requests == Offered after every serve; Dropped makes the
	// invariant auditable in reports and gates.
	Offered int

	// ActiveStart/ActivePeak/ActiveEnd track the serving set: size at
	// the first arrival, its high-water mark, and after the trace
	// drained.
	ActiveStart, ActivePeak, ActiveEnd int

	// Activations counts standby hosts brought into the serving set;
	// Handoffs of those, how many were seeded by snapshot-image
	// handoff (HandoffBytes shipped total) and RemoteColdBoots how
	// many paid a full remote template mint instead.
	Activations, Handoffs, RemoteColdBoots int
	HandoffBytes                           int64

	// Drains counts hosts retired by scale-down; Requeued the in-flight
	// requests those drains bounced back through the front door.
	Drains, Requeued int

	// Fault-plan counters, all zero without a fault plan. Crashes is
	// fail-stop host losses the detector confirmed; Rejoins hosts that
	// came back (as cold standbys); Replacements standby activations
	// triggered by a detection rather than load; Probes individual
	// host probes the front door paid for. Retried counts forwards
	// that timed out and were re-sent; Failed forwards abandoned after
	// the retry limit or budget; Shed fresh arrivals rejected at the
	// door by admission control.
	Crashes, Rejoins, Replacements, Probes int
	Retried, Failed, Shed                  int

	// Overload-control counters, all zero unless the corresponding
	// feature is armed. Expired counts requests the *router* dropped
	// because their deadline had already passed when it would have
	// dispatched them (host pools count their own queue expiries in
	// Pool.Expired); Throttled counts retries the token bucket cut
	// (those requests are also counted Failed); ShedBatch is the share
	// of Shed that was batch-class traffic — under staged admission
	// control Shed-ShedBatch is the interactive casualty count, which
	// priority staging exists to keep near zero.
	Expired, Throttled, ShedBatch int

	// Route holds per-request front-door delay (router queueing +
	// processing + forward link); Activation per-activation bring-up
	// latency (handoff transfer + attach, or remote cold mint).
	Route, Activation ukpool.Histogram

	// Pool is the host reports merged in host order — the cluster-wide
	// serving totals. Its Latency histogram is end-to-end: client
	// arrival at the front door to completion on the serving host.
	Pool ukpool.Report

	// PerHost breaks the serve down by host, in host-id order; hosts
	// that never served (standby throughout) are omitted.
	PerHost []HostReport
}

// HostReport is one host's share of a serve.
type HostReport struct {
	Host                                             int
	Requests, WarmHits, ColdBoots, ForkBoots, Queued int
	// Peak and Final are the host's instance fleet sizes.
	Peak, Final int
	// Busy is the host's aggregate service time; Utilization is
	// Busy / (cluster makespan x cores) — how much of the host's
	// capacity the serve used.
	Busy        time.Duration
	Utilization float64
	// LatencyP50/P99 are the host-local end-to-end quantiles.
	LatencyP50, LatencyP99 time.Duration
	// ActivatedAt is when a spill brought the host up (-1: serving
	// from the start); Drained marks hosts retired mid-serve;
	// Crashed marks rows that belong to a host lost to a fail-stop
	// fault (its pre-crash work).
	ActivatedAt time.Duration
	Drained     bool
	Crashed     bool
}

// Dropped is the number of offered requests the report cannot account
// for — zero by construction. Every offered request either reached a
// pool (Pool.Requests, which includes pool-level failures and
// expiries), was shed at the door, expired at the door, or was
// abandoned by the router's retry policy.
func (r *Report) Dropped() int {
	return r.Offered - r.Pool.Requests - r.Shed - r.Failed - r.Expired
}

// Goodput is the fraction of offered requests that completed
// successfully: pool completions over offered load. 1.0 without faults.
func (r *Report) Goodput() float64 {
	if r.Offered == 0 {
		return 1
	}
	return float64(r.Pool.Completed()) / float64(r.Offered)
}

// hostMeta is the per-host identity fillPerHost renders a row from.
// Each served pool incarnation carries one — a crashed host contributes
// a wreck row (its pre-crash work, state down) and possibly a live row
// (post-rejoin).
type hostMeta struct {
	id          int
	activatedAt time.Duration
	state       hostState // as the life ended
}

// fillPerHost derives the per-host section from the per-host pool
// reports (parallel slices, slot order) and the cluster makespan.
func (r *Report) fillPerHost(reps []*ukpool.Report, metas []hostMeta) {
	r.PerHost = r.PerHost[:0]
	for i, hr := range reps {
		m := metas[i]
		util := 0.0
		if r.Pool.Duration > 0 && r.Cores > 0 {
			util = float64(hr.Busy) / (float64(r.Pool.Duration) * float64(r.Cores))
		}
		r.PerHost = append(r.PerHost, HostReport{
			Host: m.id, Requests: hr.Requests,
			WarmHits: hr.WarmHits, ColdBoots: hr.ColdBoots,
			ForkBoots: hr.ForkBoots, Queued: hr.Queued,
			Peak: hr.PeakInstances, Final: hr.FinalInstances,
			Busy: hr.Busy, Utilization: util,
			LatencyP50: hr.Latency.Quantile(0.50), LatencyP99: hr.Latency.Quantile(0.99),
			ActivatedAt: m.activatedAt, Drained: m.state == drained, Crashed: m.state == down,
		})
	}
}

// String renders the multi-line summary ukserve prints for clusters:
// the control-plane lines, then the merged pool report, then one line
// per serving host.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster  %d host(s) x %d core(s), policy %s\n",
		r.Hosts, r.Cores, r.Policy)
	if r.Hosts > 1 {
		fmt.Fprintf(&b, "active   start=%d peak=%d end=%d", r.ActiveStart, r.ActivePeak, r.ActiveEnd)
		if r.Activations > 0 {
			fmt.Fprintf(&b, " activations=%d", r.Activations)
			if r.Handoffs > 0 {
				fmt.Fprintf(&b, " (handoff=%d, %.1f MB shipped)", r.Handoffs, float64(r.HandoffBytes)/1e6)
			}
			if r.RemoteColdBoots > 0 {
				fmt.Fprintf(&b, " (remote cold=%d)", r.RemoteColdBoots)
			}
		}
		if r.Drains > 0 {
			fmt.Fprintf(&b, " drains=%d requeued=%d", r.Drains, r.Requeued)
		}
		fmt.Fprintf(&b, " dropped=%d\n", r.Dropped())
		if r.Crashes > 0 || r.Retried > 0 || r.Failed > 0 || r.Shed > 0 {
			fmt.Fprintf(&b, "faults   crashes=%d rejoins=%d replacements=%d retried=%d failed=%d shed=%d goodput=%.4f\n",
				r.Crashes, r.Rejoins, r.Replacements, r.Retried, r.Failed, r.Shed, r.Goodput())
		}
		fmt.Fprintf(&b, "route    %v\n", &r.Route)
		if r.Activation.Count > 0 {
			fmt.Fprintf(&b, "activate %v\n", &r.Activation)
		}
	}
	if r.Expired > 0 || r.Throttled > 0 || r.ShedBatch > 0 {
		fmt.Fprintf(&b, "overload expired=%d throttled=%d shed-batch=%d shed-interactive=%d goodput=%.4f\n",
			r.Expired, r.Throttled, r.ShedBatch, r.Shed-r.ShedBatch, r.Goodput())
	}
	b.WriteString(r.Pool.String())
	for _, h := range r.PerHost {
		fmt.Fprintf(&b, "\nhost %-3d reqs=%-8d util=%5.1f%% warm=%d cold=%d queued=%d p50=%v p99=%v",
			h.Host, h.Requests, 100*h.Utilization, h.WarmHits, h.ColdBoots, h.Queued,
			h.LatencyP50.Round(time.Microsecond), h.LatencyP99.Round(time.Microsecond))
		switch {
		case h.Crashed:
			b.WriteString(" [crashed]")
		case h.Drained:
			b.WriteString(" [drained]")
		case h.ActivatedAt >= 0:
			fmt.Fprintf(&b, " [spilled at %v]", h.ActivatedAt.Round(time.Millisecond))
		}
	}
	return b.String()
}
