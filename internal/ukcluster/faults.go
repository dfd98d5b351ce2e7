package ukcluster

import (
	"fmt"
	"slices"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukpool"
)

// A host's lifecycle is one hostState, written by host.to alone, which
// panics on any move outside this table:
//
//	standby or drained -> active   activation: a spill or a replacement
//	active -> drained              drain
//	any state but down -> down     crash detection
//	down -> standby                rejoin, or the start of the next serve
//
// The lost-forward rule: a forward to a host is lost when the host's
// planned crash has not been detected yet and the forward arrives after
// the crash (host.crashAt, armed when the serve starts and cleared at
// detection). A rejoin runs no earlier than the detection, so it never
// shortens that window.
//
// The front door's control plane is events on one sim.EventLoop per
// serve (routeState.loop): one periodic tick carrying the autoscaler's
// evaluation every EvalEvery and, under an armed plan, a probe round
// every probeEvery; every planned crash detection and rejoin, scheduled
// when the serve starts; and every retry of a lost forward. Before the
// router takes an arrival it runs the events due by then, in time order
// with ties in scheduling order:
//
//   - When an evaluation and a probe round fall due together, the
//     evaluation runs first, whatever EvalEvery is.
//   - Detections and rejoins are scheduled before the first tick, so
//     one that lands on a tick runs before it: the router acts on a
//     confirmed failure before the autoscaler reads the backlog or the
//     probe round counts the host, and a rejoined host is a standby the
//     evaluation can spill onto.
//   - A retry that lands on a tick runs before it when its forward was
//     lost before that tick was scheduled (at the tick before), after
//     it otherwise.
//
// Every fault consequence lands at a deterministic moment:
//
//   - A host crash at T is *detected* at detectTime(T) — derived from
//     the probe schedule alone (probeEvery, probeMisses, and a
//     per-probe timeout of probeTimeoutRTTs link round trips), never
//     from arrival timing — and only then does the router stop routing
//     to the host, requeue what it can, and seed a replacement by
//     snapshot re-handoff.
//   - A forward lost to the rule above or to a lossy or partitioned link
//     fails at min(dispatch+replyTimeout, detection) and re-enters the
//     front door with exponential backoff, bounded per request
//     (RetryLimit) and per trace (RetryBudget).
//   - The dead host's pool life becomes a "wreck": it has been serving
//     with a fail-stop cutoff at T from the start — the plan says when
//     the host dies — and at detection it takes the forwards still
//     pending for it and its feed closes. Completions before the crash
//     count and everything in flight at T is Failed — the requests no
//     failover machinery can save.
//
// Two behaviours depend on the plan itself rather than on its entries —
// priced probe rounds and the static shedWater cliff — and both read
// routeState.armed, so a cluster without cluster-level faults neither
// probes nor sheds.

// The fault engine's timing.
const (
	// probeEvery is the health-probe round period.
	probeEvery = 5 * time.Millisecond
	// probeMisses is how many unanswered rounds declare a host dead.
	probeMisses = 2
	// probeTimeoutRTTs is the per-probe reply deadline in Link round
	// trips.
	probeTimeoutRTTs = 4
	// replyTimeout is how long the router waits for a forwarded
	// request's reply before declaring the forward lost. Crash
	// detection can beat it: whichever signal lands first triggers the
	// retry.
	replyTimeout = time.Millisecond
	// shedWater is the static admission threshold, in multiples of
	// HighWater (so in units of EstService of backlog per core).
	// Shedding is a last resort, evaluated only under an armed plan: it
	// triggers only when no activatable standby remains — the fleet
	// maxed out or the spares crashed — and the surviving hosts'
	// backlog still exceeds the threshold; arrivals then get a cheap
	// reject instead of queueing without bound.
	shedWater = 4
)

// schedule arms each host's planned crash as pending and puts the
// serve's control events on its loop: every crash detection in host
// order, then every rejoin in host order, then the first tick of the
// periodic control plane. Scheduled first, a detection or rejoin runs
// before a tick at the same instant.
func (c *Cluster) schedule(st *routeState) {
	plan := c.cfg.Faults
	for id, h := range c.hosts {
		h.crashAt = never
		if cr, ok := plan.CrashOf(id); ok {
			h.crashAt = cr.At
			st.loop.ScheduleAt(c.detectTime(cr.At), sim.HandlerFunc(func(t time.Duration) {
				c.detectCrash(st, id, t)
			}))
		}
	}
	for id, h := range c.hosts {
		if cr, ok := plan.CrashOf(id); ok && cr.Rejoin > 0 {
			// The host comes back cold (its old fleet died with it);
			// one back before its crash is detected rejoins right
			// after the detection, at the same instant.
			at := max(cr.At+cr.Rejoin, c.detectTime(cr.At))
			st.loop.ScheduleAt(at, sim.HandlerFunc(func(t time.Duration) {
				h.to(standby, t)
				st.rep.Rejoins++
			}))
		}
	}
	// One tick carries the autoscaler's evaluation every EvalEvery and,
	// under an armed plan, the probe round every probeEvery, and
	// reschedules itself. When both fall due the evaluation runs first,
	// whichever period is shorter.
	evalAt, probeAt := c.cfg.EvalEvery, probeEvery
	next := func() time.Duration {
		if st.armed {
			return min(evalAt, probeAt)
		}
		return evalAt
	}
	var tick sim.HandlerFunc
	tick = func(t time.Duration) {
		if t == evalAt {
			c.autoscaleStep(st, t)
			evalAt += c.cfg.EvalEvery
		}
		if st.armed && t == probeAt {
			c.probe(st, t)
			probeAt += probeEvery
		}
		st.loop.ScheduleAt(next(), tick)
	}
	st.loop.ScheduleAt(next(), tick)
	st.periodic++
}

// detectTime is when the router concludes a host that fail-stopped at
// `at` is dead: the first full probe round after the crash goes
// unanswered, probeMisses-1 further rounds confirm, and the last
// probe's timeout expires.
func (c *Cluster) detectTime(at time.Duration) time.Duration {
	first := (at/probeEvery + 1) * probeEvery
	return first + (probeMisses-1)*probeEvery + probeTimeoutRTTs*c.cfg.Link.RTT
}

// rejoined checks, once a serve has run its control plane dry, that no
// host whose plan brings it back is still down: its rejoin has run.
func (c *Cluster) rejoined() error {
	for _, h := range c.hosts {
		if cr, ok := c.cfg.Faults.CrashOf(h.id); ok && cr.Rejoin > 0 && h.state == down {
			return fmt.Errorf("ukcluster: host %d still down after its planned rejoin", h.id)
		}
	}
	return nil
}

// advance runs every control-plane event due by now, each at its own
// instant.
func (c *Cluster) advance(st *routeState, now time.Duration) {
	for t, ok := st.loop.Peek(); ok && t <= now; t, ok = st.loop.Peek() {
		st.now = t
		st.loop.Step()
	}
}

// drainFaults runs the control plane past the last arrival until no
// crash detection, rejoin or retry is pending: a retry scheduled after
// the final request must still re-enter the trace or the request would
// silently vanish. The periodic events reschedule themselves forever,
// so once the loop holds only those, nothing else is pending.
func (c *Cluster) drainFaults(st *routeState) {
	for st.loop.Len() > st.periodic {
		t, _ := st.loop.Peek()
		c.advance(st, t)
	}
}

// probe is one health-probe round: the router pings every host it
// believes is serving and matches replies. The round is priced on the
// router's pipeline — while the front door probes, it is not routing.
// Detection itself derives from the probe *schedule* (detectTime), so
// the round here is the cost and the counters, not a liveness scan.
func (c *Cluster) probe(st *routeState, t time.Duration) {
	n := len(st.activated)
	if n == 0 {
		return
	}
	st.occupy(t, c.cfg.Router.ChargeProbe(st.m, n))
	st.rep.Probes += n
}

// detectCrash applies a crash the probe schedule just confirmed: take
// the host down and its crash off pending, retire its pool life as a
// wreck — its pending forwards released, its feed closed — and, because
// the router now knows it is short a host, seed a replacement standby
// immediately by the normal activation path (snapshot re-handoff when
// enabled).
func (c *Cluster) detectCrash(st *routeState, id int, at time.Duration) {
	h := c.hosts[id]
	st.rep.Crashes++
	wasActive := h.state == active
	h.to(down, at)
	h.crashAt = never
	st.ringDirty = true
	switch {
	case h.cur != nil:
		h.retire()
		h.wreck, h.cur = h.cur, nil
	case h.pool != nil:
		// Crashed before a single forward reached it (e.g. mid handoff):
		// nothing to serve, but the host still shows up as crashed.
		h.wreck = &incarnation{pool: h.pool, meta: hostMeta{h.id, h.activatedAt, down}, rep: &ukpool.Report{}}
	}
	h.pool = nil
	h.backlog = 0
	st.activated = slices.DeleteFunc(st.activated, func(id int) bool { return id == h.id })
	if wasActive {
		before := st.rep.Activations
		c.activate(st, at)
		if st.rep.Activations > before {
			st.rep.Replacements++
		}
	}
}

// linkAt folds the link faults covering host at time t: extra one-way
// delay, combined loss probability, and whether a partition is cutting
// the host off entirely.
func (c *Cluster) linkAt(host int, t time.Duration) (extra time.Duration, loss float64, part bool) {
	for _, l := range c.cfg.Faults.Links {
		if (l.Host != -1 && l.Host != host) || !l.Covers(t) {
			continue
		}
		extra += l.ExtraDelay
		loss = 1 - float64((1-loss)*(1-l.Loss)) // no fused multiply-subtract
		part = part || l.Partition
	}
	return extra, loss, part
}

// maxBackoffShift caps the exponential-backoff doubling: beyond it the
// delay saturates instead of growing. Attempts are normally bounded by
// RetryLimit (default 3), but the limit is caller-settable — a shift of
// 64 or more is undefined behavior in hardware terms and in Go produces
// garbage durations (zero or negative backoff, i.e. a hot retry loop),
// so the cap keeps a generous-but-sane ceiling (~16s at the default
// 250µs base) no matter the configuration.
const maxBackoffShift = 16

// loseForward handles a forward the plan kills: the router learns of
// the loss at failAt (reply timeout, or crash detection if sooner) and
// the request re-enters the front door with exponential backoff —
// unless its retries, the trace's budget, or the retry token bucket are
// exhausted, in which case it is Failed for good.
func (c *Cluster) loseForward(st *routeState, req ukpool.Request, origin, failAt time.Duration) {
	if req.Attempt >= c.cfg.RetryLimit ||
		(c.cfg.RetryBudget > 0 && st.used >= c.cfg.RetryBudget) {
		st.rep.Failed++
		return
	}
	if c.cfg.RetryThrottleRatio > 0 {
		if st.throttle < 1 {
			// The bucket is dry: losses are outpacing successes badly
			// enough that retrying would only feed the storm. Fail fast
			// and count the cut so reports show the throttle working.
			st.rep.Failed++
			st.rep.Throttled++
			return
		}
		st.throttle--
	}
	st.used++
	st.rep.Retried++
	shift := uint(req.Attempt)
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	backoff := c.cfg.RetryBackoff << shift
	if st.spare == nil {
		slab := make([]retry, retrySlab)
		for i := range slab {
			slab[i].next, st.spare = st.spare, &slab[i]
		}
	}
	r := st.spare
	st.spare = r.next
	// The retry keeps the request's identity; Fire stamps its new
	// front-door arrival.
	req.Arrival, req.Origin = 0, origin
	req.Attempt++
	*r = retry{c: c, st: st, req: req}
	st.loop.ScheduleAt(failAt+backoff, r)
}

// retrySlab is how many retries one allocation carves.
const retrySlab = 64

// retry is one lost forward waiting to re-enter the front door: an
// event on the serve's loop. Retries are carved from slabs and a fired
// one goes back on the serve's spare list, so a serve does not allocate
// one per retry.
type retry struct {
	c    *Cluster
	st   *routeState
	req  ukpool.Request
	next *retry // the spare list
}

// Fire re-enters the request at the front door. The retry is spare
// again before routeOne runs, since routeOne can lose the forward and
// take a retry for its next attempt.
func (r *retry) Fire(now time.Duration) {
	c, st, req := r.c, r.st, r.req
	r.next, st.spare = st.spare, r
	req.Arrival = now
	c.routeOne(st, req, now)
}

// shed rejects one arrival at the front door under admission control:
// priced (cheaply) on the router, counted separately from failures —
// a shed client got a fast no, not silence. The class splits the count
// so reports can show staged shedding sacrificing batch first.
func (c *Cluster) shed(st *routeState, at time.Duration, class int) {
	st.occupy(at, c.cfg.Router.ChargeReject(st.m))
	st.rep.Shed++
	if class >= ukpool.ClassBatch {
		st.rep.ShedBatch++
	}
}
