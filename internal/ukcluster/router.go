package ukcluster

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// routeState is the front door's per-serve bookkeeping: the router
// box's pipeline clock, the balancing state, and the autoscaler's
// hysteresis streaks. The front door is a single sequential pass, so
// nothing here but serving is shared with the host loops.
type routeState struct {
	rep *Report
	m   *sim.Machine // the router box

	// now is the front door's clock: the time of the event it is
	// handling. routeOne starts no earlier, so no forward made from
	// here on dispatches — or reaches a host — before it, and no drain
	// comes before it either.
	now time.Duration

	// busyUntil models the router as a single-core store-and-forward
	// box: requests queue behind each other at the front door, so a
	// hot enough trace makes the router itself the bottleneck — which
	// is the truth a fluid model must not hide. Only occupy moves it.
	busyUntil time.Duration

	rr int // round-robin cursor

	ring      []ringPoint // consistent-hash ring over serving hosts
	ringDirty bool

	evalAt                  time.Duration // next autoscaler evaluation
	spillStreak, drainCount int

	// activated (this serve, in order) — drains pop LIFO so the most
	// recently added capacity retires first and long-lived hosts keep
	// their caches.
	activated []int

	// f is the fault engine's per-serve state, always present; f.armed
	// says whether the plan carries anything the router must act on.
	f *faultState

	// adm is the adaptive admission controller; nil when AdmitTarget is
	// unset (independently of f).
	adm *admitState

	seq    uint64    // forwards made, for their ordinals
	ready  []*host   // readyHosts' result, reused
	bounce []forward // a drain's bounced forwards, reused

	// serving counts the host loops still running.
	serving sync.WaitGroup
}

// admitState is the adaptive admission controller's per-serve state:
// one drop probability per priority class, recomputed every autoscaler
// evaluation window from the router's fluid queue-delay estimate. The
// controller is proportional — shed the fraction of arrivals by which
// the estimated delay exceeds the class's target — so the backlog
// settles near the target instead of cliff-diving the way a static
// threshold does: at any sustained overload ratio rho > 1, dropping
// (d-T)/d of arrivals is exactly what holds d at rho*T.
type admitState struct {
	seed   uint64
	target float64 // AdmitTarget, in float ns (the perCore unit)
	pBatch float64 // current batch-class drop probability
	pInt   float64 // current interactive-class drop probability
}

// admitInteractiveMult is the interactive shed threshold as a multiple
// of the admission target.
const admitInteractiveMult = 3

// update recomputes the per-class drop probabilities from the current
// estimated queue delay d (float ns). Batch sheds past the target,
// interactive only past admitInteractiveMult times it — staged
// sacrifice: by the time interactive traffic is touched, batch is
// already being cut hard.
func (a *admitState) update(d float64) {
	a.pBatch, a.pInt = 0, 0
	if d > a.target {
		a.pBatch = (d - a.target) / d
	}
	// The product is rounded on its own so no platform fuses it into
	// the subtraction below.
	if hi := float64(admitInteractiveMult * a.target); d > hi {
		a.pInt = (d - hi) / d
	}
}

// drop decides whether to shed req under the current probabilities.
// The draw is keyed on the request's own identity (never an arrival
// ordinal or a rate counter), so the same request gets the same verdict
// regardless of shard count, host count, or what was routed before it.
func (a *admitState) drop(req ukpool.Request) bool {
	p := a.pInt
	if req.Class >= ukpool.ClassBatch {
		p = a.pBatch
	}
	if p <= 0 {
		return false
	}
	draw := ukfault.Frac(ukfault.Mix(a.seed^0x61646D69, // "admi": domain separation
		uint64(req.Arrival), uint64(req.Bytes), req.Key, uint64(req.Class)))
	return draw < p
}

// virtualNodes is the consistent-hash ring density per host.
const virtualNodes = 64

type ringPoint struct {
	hash uint64
	host int
}

// route runs the front door: consume the workload, price the front
// door, pick a host per request (activating and draining hosts along
// the way), and release each host's forwards into the feed its pool is
// serving from as the clock passes them. The emitted Request keeps the
// client-side arrival in Origin and carries the post-router, post-link
// timestamp in Arrival, so host pools measure end-to-end latency while
// scheduling on host-local time. When route returns, every feed is
// closed; the host loops may still be running.
func (c *Cluster) route(w ukpool.Workload) *routeState {
	rep := &Report{Hosts: c.cfg.Hosts, Cores: c.cfg.Cores, Policy: c.cfg.Policy}
	st := &routeState{rep: rep, m: sim.NewMachine(), evalAt: c.cfg.EvalEvery, ringDirty: true,
		ready: make([]*host, 0, len(c.hosts))}
	st.f = c.newFaultState()
	if c.cfg.AdmitTarget > 0 {
		st.adm = &admitState{seed: c.cfg.AdmitSeed, target: float64(c.cfg.AdmitTarget)}
	}

	for _, h := range c.hosts {
		h.drained = false
		h.backlog = 0
		h.lastUpd = 0
		h.readyAt = 0
		h.crashed = false
		h.wrecked = false
		if h.active {
			h.activatedAt = -1
			rep.ActiveStart++
		}
	}
	rep.ActivePeak = rep.ActiveStart

	for {
		req, ok := w.Next()
		if !ok {
			break
		}
		rep.Offered++
		if c.cfg.DefaultDeadline > 0 && req.Deadline == 0 {
			req.Deadline = req.Arrival + c.cfg.DefaultDeadline
		}
		c.advance(st, req.Arrival)
		st.now = req.Arrival
		if st.f.shedding {
			c.shed(st, req.Arrival, req.Class)
			continue
		}
		// Adaptive admission sheds fresh arrivals only; retries and
		// drain requeues already consumed router and link work, so
		// cutting them here would waste what the deadline check bounds
		// anyway.
		if st.adm != nil && st.adm.drop(req) {
			c.shed(st, req.Arrival, req.Class)
			continue
		}
		c.routeOne(st, req, req.Arrival)
	}
	// Run the control plane past the last arrival: pending retries,
	// detections and rejoins still land (or requests would vanish).
	c.drainFaults(st)

	// Every host that took forwards, or ends the serve active, is served:
	// the rest of its forwards go out and its feed closes.
	for _, h := range c.hosts {
		if h.cur == nil && h.pool != nil && h.active {
			h.cur = c.incarnate(st, h)
		}
		if h.cur != nil {
			h.retire(hostMeta{id: h.id, activatedAt: h.activatedAt, drained: h.drained}, h.active)
		}
	}
	return st
}

// occupy runs the router box for cycles, starting at at or when the
// box frees up, whichever is later, and returns when it is done.
func (st *routeState) occupy(at time.Duration, cycles uint64) time.Duration {
	st.busyUntil = max(at, st.busyUntil) + st.m.CPU.Duration(cycles)
	return st.busyUntil
}

// routeOne prices one routing decision on the router box and forwards
// the request to the chosen host. at is when the request reaches the
// front door (the client arrival on first pass, the bounce moment for
// drain requeues); the router processes in order on its own pipeline —
// the decision lands when the box gets to this request — so a hot
// enough trace makes the front door itself the bottleneck.
func (c *Cluster) routeOne(st *routeState, req ukpool.Request, at time.Duration) {
	// A request whose deadline already passed while it queued at the
	// front door (or backed off between retries) gets a cheap priced
	// expiry instead of a forward: no policy runs, no link is charged,
	// no host burns service time on an answer nobody is waiting for.
	if req.Deadline > 0 && max(at, st.busyUntil) >= req.Deadline {
		st.occupy(at, c.cfg.Router.ChargeExpire(st.m))
		st.rep.Expired++
		return
	}
	scan := c.cfg.Policy == LeastLoaded ||
		(c.cfg.Policy == ConsistentHash && req.Key == 0)
	hash := c.cfg.Policy == ConsistentHash && req.Key != 0
	dispatch := st.occupy(at, c.cfg.Router.ChargeRoute(st.m, c.serving(), scan, hash))
	h := c.pickHost(st, req.Key, dispatch)
	if h == nil {
		// Reachable only under faults: every host is crashed or standby
		// with nothing activatable. Nobody can serve this request.
		st.rep.Failed++
		return
	}
	c.assign(st, h, req, dispatch)
}

// assign forwards req to host h at router-dispatch time dispatch:
// charge the link, stamp Origin/Arrival, and grow the fluid backlog.
// Under a fault plan the forward can die on the way: into a partition,
// to a loss draw, or at a host the plan has already fail-stopped (the
// router won't know until detection) — those forwards never reach a
// pool and go through the retry machinery instead. A plan without link
// faults or crashes folds to zero extra delay, no loss and no dead
// window, so the forward lands at dispatch plus the link delay.
func (c *Cluster) assign(st *routeState, h *host, req ukpool.Request, dispatch time.Duration) {
	origin := req.Arrival
	if req.Origin != 0 {
		origin = req.Origin
	}
	base := dispatch
	if h.readyAt > base {
		// Only under faults: every ready host crashed, and the forward
		// waits for the replacement's handoff to land.
		base = h.readyAt
	}
	f := st.f
	extra, loss, part := f.linkAt(h.id, base)
	arrival := base + c.cfg.Link.ForwardDelay(req.Bytes) + extra
	lost, detect := part, time.Duration(0)
	if !lost && loss > 0 {
		draw := ukfault.Frac(ukfault.Mix(f.plan.Seed^0x6C696E6B, uint64(h.id), uint64(base)))
		lost = draw < loss
	}
	// Forwards landing in the host's dead window die there. A
	// rejoined host serves again — only the window between crash
	// and rejoin swallows traffic.
	if cr, ok := f.plan.CrashOf(h.id); ok && arrival > cr.At &&
		(cr.Rejoin == 0 || arrival < cr.At+cr.Rejoin) {
		lost = true
		detect = c.detectTime(cr.At)
	}
	if lost {
		failAt := base + replyTimeout
		if detect > 0 && detect < failAt {
			failAt = detect
		}
		c.loseForward(st, req, origin, failAt)
		return
	}
	st.rep.Route.Record(arrival - origin)
	h.decay(base, c.cfg.Cores)
	est := c.cfg.EstService
	if fac := f.plan.SlowAt(h.id, base); fac > 1 {
		// A slowed host works its backlog off slower than the fluid
		// model's uniform decay assumes; inflating what we add keeps
		// the model honest, steers least-loaded around the sick host,
		// and lets the admission controller see the pressure it causes.
		est = time.Duration(float64(est) * fac)
	}
	h.backlog += est
	if c.cfg.RetryThrottleRatio > 0 {
		// A forward that made it through earns the retry bucket its
		// keep (capped): retries stay a bounded fraction of success.
		f.throttle += c.cfg.RetryThrottleRatio
		f.throttle = min(f.throttle, retryThrottleBurst)
	}
	req.Arrival, req.Origin = arrival, origin
	c.queue(st, h, req)
}

// decay drains the fluid backlog model to time t: the host works the
// outstanding estimate off at Cores' worth of service per unit time.
func (h *host) decay(t time.Duration, cores int) {
	if t <= h.lastUpd {
		return
	}
	worked := (t - h.lastUpd) * time.Duration(cores)
	if worked >= h.backlog {
		h.backlog = 0
	} else {
		h.backlog -= worked
	}
	h.lastUpd = t
}

// serving counts hosts in the serving set (active, not draining).
func (c *Cluster) serving() int {
	n := 0
	for _, h := range c.hosts {
		if h.active {
			n++
		}
	}
	return n
}

// pickHost runs the balancing policy over the hosts that are active
// and ready (activation complete) at dispatch time. At least one host
// is always ready: the serving set never shrinks below MinActive >= 1
// and initial hosts are ready at t=0.
func (c *Cluster) pickHost(st *routeState, key uint64, dispatch time.Duration) *host {
	ready := c.readyHosts(st, dispatch)
	if len(ready) == 0 {
		// Reachable only under faults: every ready host crashed and the
		// replacement is still activating. Forward to the soonest-ready
		// active host — assign holds the forward until its handoff
		// lands. Nil when nothing is active at all.
		var best *host
		for _, h := range c.hosts {
			if h.active && (best == nil || h.readyAt < best.readyAt) {
				best = h
			}
		}
		return best
	}
	switch c.cfg.Policy {
	case RoundRobin:
		h := ready[st.rr%len(ready)]
		st.rr++
		return h
	case ConsistentHash:
		if key != 0 {
			return c.ringLookup(st, key, dispatch)
		}
	}
	return leastLoaded(ready, dispatch, c.cfg.Cores)
}

// readyHosts collects the active hosts whose activation has completed
// by time t, in host-id order, into st's reused slice.
func (c *Cluster) readyHosts(st *routeState, t time.Duration) []*host {
	st.ready = st.ready[:0]
	for _, h := range c.hosts {
		if h.active && h.readyAt <= t {
			st.ready = append(st.ready, h)
		}
	}
	return st.ready
}

// leastLoaded picks the ready host with the smallest decayed backlog,
// ties to the lowest host id.
func leastLoaded(ready []*host, t time.Duration, cores int) *host {
	best := ready[0]
	best.decay(t, cores)
	for _, h := range ready[1:] {
		h.decay(t, cores)
		if h.backlog < best.backlog {
			best = h
		}
	}
	return best
}

// ringLookup maps a session key onto the virtual-node ring, walking
// clockwise past hosts that are still warming up. The ring covers the
// whole serving set (ready or not) so placements stay stable across
// the brief warm-up window instead of re-shuffling twice.
func (c *Cluster) ringLookup(st *routeState, key uint64, dispatch time.Duration) *host {
	if st.ringDirty {
		st.ring = st.ring[:0]
		for _, h := range c.hosts {
			if !h.active {
				continue
			}
			// Two-round hash: vnode points must live in a different
			// input domain than raw session keys, or small keys (1..N)
			// collide exactly with host 0's vnodes (0<<20|v = v) and
			// the whole key space lands on one host.
			hostSalt := sim.Mix64(uint64(h.id) + 1)
			for v := 0; v < virtualNodes; v++ {
				st.ring = append(st.ring, ringPoint{
					hash: sim.Mix64(hostSalt + uint64(v)),
					host: h.id,
				})
			}
		}
		sort.Slice(st.ring, func(i, j int) bool {
			if st.ring[i].hash != st.ring[j].hash {
				return st.ring[i].hash < st.ring[j].hash
			}
			return st.ring[i].host < st.ring[j].host
		})
		st.ringDirty = false
	}
	kh := sim.Mix64(key)
	i := sort.Search(len(st.ring), func(i int) bool { return st.ring[i].hash >= kh })
	for probe := 0; probe < len(st.ring); probe++ {
		p := st.ring[(i+probe)%len(st.ring)]
		h := c.hosts[p.host]
		if h.active && h.readyAt <= dispatch {
			return h
		}
	}
	// No ring member ready (all just activated) — fall back.
	return leastLoaded(c.readyHosts(st, dispatch), dispatch, c.cfg.Cores)
}

// autoscaleStep is one evaluation window at time t. Spills and drains
// both require their condition to hold for a streak of consecutive
// windows (hysteresis), and act one host at a time.
func (c *Cluster) autoscaleStep(st *routeState, t time.Duration) {
	// Average decayed backlog per core across the serving set —
	// the router's congestion signal.
	serving, standby := 0, 0
	var total time.Duration
	for _, h := range c.hosts {
		if !h.active {
			if !h.crashed {
				standby++
			}
			continue
		}
		serving++
		h.decay(t, c.cfg.Cores)
		total += h.backlog
	}
	if serving == 0 {
		st.f.shedding = st.f.armed // nothing serving: reject at the door
		return
	}
	perCore := float64(total) / float64(serving*c.cfg.Cores)
	est := float64(c.cfg.EstService)

	if perCore > c.cfg.HighWater*est && serving < c.cfg.Hosts {
		st.spillStreak++
		if st.spillStreak >= c.cfg.SpillAfter {
			c.activate(st, t)
			st.spillStreak = 0
		}
	} else {
		st.spillStreak = 0
	}

	if perCore < c.cfg.LowWater*est && serving > c.cfg.MinActive {
		st.drainCount++
		if st.drainCount >= c.cfg.DrainAfter {
			c.drain(st, t)
			st.drainCount = 0
		}
	} else {
		st.drainCount = 0
	}

	// Admission control, armed only with a fault plan and only once
	// scale-out is exhausted: with standby capacity left, a deep
	// backlog is the spill path's problem; with none — the fleet maxed
	// or the spares crashed — shed new arrivals at the door rather
	// than queueing them into a latency cliff.
	st.f.shedding = st.f.armed && standby == 0 && perCore > shedWater*c.cfg.HighWater*est

	// The adaptive admission controller re-targets on the same signal
	// (estimated queue delay per core) each window. Unlike the static
	// shed above it does not wait for scale-out to exhaust: spilling
	// takes an activation latency, and the controller's job is to keep
	// the queue bounded *through* that window too.
	if st.adm != nil {
		st.adm.update(perCore)
	}
}

// activate brings the lowest-id standby host into the serving set,
// paying the activation price: snapshot-image handoff (ship the warm
// template over the link, attach) when enabled, a full remote template
// mint otherwise. The host joins immediately for placement stability
// but only becomes ready — eligible for requests — once the image is
// in place.
func (c *Cluster) activate(st *routeState, t time.Duration) {
	var h *host
	for _, cand := range c.hosts {
		if !cand.active && !cand.crashed {
			h = cand
			break
		}
	}
	if h == nil {
		return
	}
	if h.pool == nil {
		pool, err := c.newPool(h.id)
		if err != nil {
			// Pool construction is deterministic; a failure here would
			// have failed in New for the initial hosts too. Leave the
			// host on standby rather than abort a serve mid-trace.
			return
		}
		h.pool = pool
	}

	var lat time.Duration
	act := c.cfg.Activation
	if act.Handoff {
		lat = c.cfg.Link.Transfer(act.ImageBytes) + act.Attach
		st.rep.Handoffs++
		st.rep.HandoffBytes += int64(act.ImageBytes)
	} else {
		lat = c.cfg.Link.RTT + act.ColdBoot
		st.rep.RemoteColdBoots++
	}

	h.active = true
	h.drained = false
	h.activatedAt = t
	h.readyAt = t + lat
	h.backlog = 0
	h.lastUpd = t + lat
	st.rep.Activations++
	st.rep.Activation.Record(lat)
	st.activated = append(st.activated, h.id)
	st.ringDirty = true
	if s := c.serving(); s > st.rep.ActivePeak {
		st.rep.ActivePeak = s
	}
}

// drain retires one host from the serving set: the most recently
// activated one (LIFO), never host 0 — the template holder seeds every
// handoff, so the floor always keeps it — and never below MinActive.
// Requests already forwarded but still in flight on the link bounce
// back to the front door and are re-routed deterministically.
func (c *Cluster) drain(st *routeState, t time.Duration) {
	var h *host
	for i := len(st.activated) - 1; i >= 0; i-- {
		cand := c.hosts[st.activated[i]]
		if cand.active && cand.id != 0 {
			h = cand
			st.activated = append(st.activated[:i], st.activated[i+1:]...)
			break
		}
	}
	if h == nil {
		// Nothing activated this serve — retire the highest-id initial
		// host instead (host 0 stays).
		for i := len(c.hosts) - 1; i > 0; i-- {
			if c.hosts[i].active {
				h = c.hosts[i]
				break
			}
		}
	}
	if h == nil {
		return
	}

	h.active = false
	h.drained = true
	st.rep.Drains++
	st.ringDirty = true

	// In-flight requeue: anything forwarded to h that has not yet
	// arrived there (Arrival > t) returns to the front door and is
	// re-routed — re-priced through the router, re-forwarded over the
	// link, original Origin preserved. Requests already at the host
	// stay: the host finishes its queue before going dark. None of the
	// bounced can have been released: the clock has not passed t.
	h.release(t)
	st.bounce = append(st.bounce[:0], h.pending[h.head:]...)
	h.pending, h.head = h.pending[:0], 0
	slices.SortFunc(st.bounce, func(a, b forward) int { return cmp.Compare(a.seq, b.seq) })
	for _, fw := range st.bounce {
		// Re-enter the front door at the bounce moment, as a first
		// attempt: same router box, same cost model, Origin preserved so
		// end-to-end latency still counts from the client arrival.
		r := fw.req
		r.Arrival, r.Attempt = t, 0
		c.routeOne(st, r, t)
		st.rep.Requeued++
	}
}
