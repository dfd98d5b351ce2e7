package ukcluster

import (
	"cmp"
	"math"
	"slices"
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// The fault engine runs inside the front door's pass, interleaved with
// routing on the same virtual timeline. Its key property is that every
// fault consequence is computable at a deterministic moment:
//
//   - A host crash at T is *detected* at detectTime(T) — derived from
//     the probe schedule alone (probeEvery, probeMisses, and a
//     per-probe timeout of probeTimeoutRTTs link round trips), never
//     from arrival timing — and only then does the router stop routing
//     to the host, requeue what it can, and seed a replacement by
//     snapshot re-handoff.
//   - A forward dispatched into a dead host or a lossy/partitioned link
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
// The state below exists on every serve. Two behaviours depend on the
// plan itself rather than on its entries — priced probe rounds and the
// static shedWater cliff — and both read faultState.armed, so a cluster
// without cluster-level faults neither probes nor sheds.

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

// faultState is the per-serve fault bookkeeping hanging off routeState.
type faultState struct {
	plan *ukfault.Plan
	// armed is plan.ClusterFaults(), read once per serve: it gates the
	// probe rounds and the static shed, the only fault machinery that
	// acts without a crash, link or slow entry to trigger it.
	armed bool

	crashes    []crashEvent // ordered by detectAt (ties: host id)
	nextCrash  int
	rejoins    []rejoinEvent // ordered by at (ties: host id)
	nextRejoin int

	probeAt time.Duration // next probe round

	retries  retryHeap
	retrySeq uint64
	used     int // retries consumed from the per-trace budget

	// throttle is the retry token bucket (starts at retryThrottleBurst;
	// successful forwards refill it at RetryThrottleRatio per forward,
	// each retry spends 1). Only consulted when the throttle is armed.
	throttle float64

	shedding bool // admission control tripped (set per autoscale window)
}

// crashEvent is one planned fail-stop with its precomputed detection.
type crashEvent struct {
	host         int
	at, detectAt time.Duration
}

type rejoinEvent struct {
	host int
	at   time.Duration
}

// retryEntry is one lost forward waiting to re-enter the front door.
type retryEntry struct {
	at  time.Duration
	seq uint64
	req ukpool.Request
}

// retryHeap is a min-heap over (at, seq) — same tie-break discipline as
// the sim event loop, so retry firing order is reproducible.
type retryHeap []retryEntry

func (h *retryHeap) push(e retryEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *retryHeap) pop() retryEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = retryEntry{}
	*h = s[:n]
	s = *h
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.less(left, smallest) {
			smallest = left
		}
		if right < n && s.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

func (h retryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// newFaultState builds the engine's state for one serve.
func (c *Cluster) newFaultState() *faultState {
	p := c.cfg.Faults
	f := &faultState{plan: p, armed: p.ClusterFaults(),
		probeAt: probeEvery, throttle: retryThrottleBurst}
	for _, cr := range p.Crashes {
		f.crashes = append(f.crashes, crashEvent{
			host: cr.Host, at: cr.At, detectAt: c.detectTime(cr.At),
		})
		if cr.Rejoin > 0 {
			f.rejoins = append(f.rejoins, rejoinEvent{host: cr.Host, at: cr.At + cr.Rejoin})
		}
	}
	slices.SortStableFunc(f.crashes, func(a, b crashEvent) int {
		return cmp.Or(cmp.Compare(a.detectAt, b.detectAt), cmp.Compare(a.host, b.host))
	})
	slices.SortStableFunc(f.rejoins, func(a, b rejoinEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.host, b.host))
	})
	return f
}

// detectTime is when the router concludes a host that fail-stopped at
// `at` is dead: the first full probe round after the crash goes
// unanswered, probeMisses-1 further rounds confirm, and the last
// probe's timeout expires.
func (c *Cluster) detectTime(at time.Duration) time.Duration {
	first := (at/probeEvery + 1) * probeEvery
	return first + (probeMisses-1)*probeEvery + probeTimeoutRTTs*c.cfg.Link.RTT
}

// advance processes every control-plane event due by now in
// deterministic time order: autoscaler evaluations, probe rounds, crash
// detections, rejoins and retry firings (ties resolve in that fixed
// order). Unarmed, only the evaluations ever come due.
func (c *Cluster) advance(st *routeState, now time.Duration) {
	f := st.f
	const (
		kNone = iota
		kEval
		kProbe
		kDetect
		kRejoin
		kRetry
	)
	for {
		t := time.Duration(math.MaxInt64)
		kind := kNone
		pick := func(at time.Duration, k int) {
			if at <= now && at < t {
				t, kind = at, k
			}
		}
		pick(st.evalAt, kEval)
		if f.armed {
			pick(f.probeAt, kProbe)
		}
		if f.nextCrash < len(f.crashes) {
			pick(f.crashes[f.nextCrash].detectAt, kDetect)
		}
		if f.nextRejoin < len(f.rejoins) {
			pick(f.rejoins[f.nextRejoin].at, kRejoin)
		}
		if len(f.retries) > 0 {
			pick(f.retries[0].at, kRetry)
		}
		if kind == kNone {
			return
		}
		st.now = t
		switch kind {
		case kEval:
			c.autoscaleStep(st, st.evalAt)
			st.evalAt += c.cfg.EvalEvery
		case kProbe:
			c.probe(st, f.probeAt)
			f.probeAt += probeEvery
		case kDetect:
			c.detectCrash(st, f.crashes[f.nextCrash])
			f.nextCrash++
		case kRejoin:
			c.rejoin(st, f.rejoins[f.nextRejoin])
			f.nextRejoin++
		case kRetry:
			e := f.retries.pop()
			req := e.req
			req.Arrival = e.at
			c.routeOne(st, req, e.at)
		}
	}
}

// drainFaults runs the control plane past the last arrival until no
// crash detection, rejoin or retry is pending — a retry scheduled after
// the final request must still re-enter the trace or the request would
// silently vanish.
func (c *Cluster) drainFaults(st *routeState) {
	f := st.f
	for {
		t := time.Duration(math.MaxInt64)
		if f.nextCrash < len(f.crashes) && f.crashes[f.nextCrash].detectAt < t {
			t = f.crashes[f.nextCrash].detectAt
		}
		if f.nextRejoin < len(f.rejoins) && f.rejoins[f.nextRejoin].at < t {
			t = f.rejoins[f.nextRejoin].at
		}
		if len(f.retries) > 0 && f.retries[0].at < t {
			t = f.retries[0].at
		}
		if t == time.Duration(math.MaxInt64) {
			return
		}
		c.advance(st, t)
	}
}

// probe is one health-probe round: the router pings every host it
// believes is serving and matches replies. The round is priced on the
// router's pipeline — while the front door probes, it is not routing.
// Detection itself derives from the probe *schedule* (detectTime), so
// the round here is the cost and the counters, not a liveness scan.
func (c *Cluster) probe(st *routeState, t time.Duration) {
	n := c.serving()
	if n == 0 {
		return
	}
	st.occupy(t, c.cfg.Router.ChargeProbe(st.m, n))
	st.rep.Probes += n
}

// detectCrash applies a crash the probe schedule just confirmed: pull
// the host from the serving set, retire its pool life as a wreck — its
// pending forwards released, its feed closed — and, because the router
// now knows it is short a host, seed a replacement standby immediately
// by the normal activation path (snapshot re-handoff when enabled).
func (c *Cluster) detectCrash(st *routeState, ev crashEvent) {
	h := c.hosts[ev.host]
	st.rep.Crashes++
	wasActive := h.active
	h.crashed = true
	h.wrecked = true
	h.active = false
	h.drained = false
	st.ringDirty = true
	meta := hostMeta{id: h.id, activatedAt: h.activatedAt, crashed: true}
	switch {
	case h.cur != nil:
		h.retire(meta, false)
		h.wreck, h.cur = h.cur, nil
	case h.pool != nil:
		// Crashed before a single forward reached it (e.g. mid handoff):
		// nothing to serve, but the host still shows up as crashed.
		h.wreck = &incarnation{pool: h.pool, meta: meta, rep: &ukpool.Report{}}
	}
	h.pool = nil
	h.backlog = 0
	for i, id := range st.activated {
		if id == ev.host {
			st.activated = append(st.activated[:i], st.activated[i+1:]...)
			break
		}
	}
	if wasActive {
		before := st.rep.Activations
		c.activate(st, ev.detectAt)
		if st.rep.Activations > before {
			st.rep.Replacements++
		}
	}
}

// rejoin returns a crashed host to the standby set. It comes back
// cold — its old fleet died with it — and pays the usual activation
// (handoff + attach) if and when the autoscaler brings it back in.
func (c *Cluster) rejoin(st *routeState, ev rejoinEvent) {
	h := c.hosts[ev.host]
	h.crashed = false
	st.rep.Rejoins++
}

// linkAt folds the link faults covering host at time t: extra one-way
// delay, combined loss probability, and whether a partition is cutting
// the host off entirely.
func (f *faultState) linkAt(host int, t time.Duration) (extra time.Duration, loss float64, part bool) {
	for _, l := range f.plan.Links {
		if l.Host != -1 && l.Host != host {
			continue
		}
		if t < l.From {
			continue
		}
		if l.To > l.From && t >= l.To {
			continue
		}
		extra += l.ExtraDelay
		loss = 1 - (1-loss)*(1-l.Loss)
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
	f := st.f
	if req.Attempt >= c.cfg.RetryLimit ||
		(c.cfg.RetryBudget > 0 && f.used >= c.cfg.RetryBudget) {
		st.rep.Failed++
		return
	}
	if c.cfg.RetryThrottleRatio > 0 {
		if f.throttle < 1 {
			// The bucket is dry: losses are outpacing successes badly
			// enough that retrying would only feed the storm. Fail fast
			// and count the cut so reports show the throttle working.
			st.rep.Failed++
			st.rep.Throttled++
			return
		}
		f.throttle--
	}
	f.used++
	st.rep.Retried++
	shift := uint(req.Attempt)
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	backoff := c.cfg.RetryBackoff << shift
	f.retrySeq++
	// The retry keeps the request's identity; advance stamps its new
	// front-door arrival when the entry fires.
	req.Arrival, req.Origin = 0, origin
	req.Attempt++
	f.retries.push(retryEntry{at: failAt + backoff, seq: f.retrySeq, req: req})
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
