package ukpool

import (
	"fmt"
	"sync"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// serveState is the per-Serve bookkeeping threaded through the event
// handlers. The handlers themselves (arrival, autoscaler tick, and the
// per-instance timer) are embedded reusable structs: the steady-state
// serving loop schedules by pointer and allocates nothing per event.
type serveState struct {
	loop  sim.Loop
	w     Workload
	wDone bool
	rep   *Report
	err   error

	// pending counts the instance events scheduled and not yet fired,
	// by kind: an instance out of rotation is in service, booting or
	// recycling exactly while its one event is pending, so these counts
	// are the fleet's busy and booting state.
	pending [evKinds]int
	queue   deque[Request]
	lastEnd time.Duration

	arrEv  arrivalEvent
	tickEv tickEvent

	// autoscaler window
	winArrivals int
	winCold     int
	winLat      Histogram
	ewmaService time.Duration
	// ewmaBoot tracks instantiation cost (full boots or forks): the
	// autoscaler's Little's-law sizing includes the boot residence of
	// the window's cold share, so a cheaper cold boot — the snapshot
	// fork — directly shrinks the warm set the controller keeps.
	ewmaBoot time.Duration
}

// busy counts instances in service (to completion or to a crash).
func (st *serveState) busy() int { return st.pending[evComplete] + st.pending[evCrash] }

// booting counts instances out of rotation until a boot, restart or
// heap recycle completes, cold boots with a request waiting included.
func (st *serveState) booting() int { return st.pending[evBootReady] + st.pending[evReady] }

// arrivalEvent delivers the next workload request; exactly one is
// outstanding at a time, so one embedded instance is recycled for the
// whole trace.
type arrivalEvent struct {
	p   *Pool
	st  *serveState
	req Request
}

func (e *arrivalEvent) Fire(now time.Duration) { e.p.arrive(e.st, e.req, now) }

// tickEvent is the autoscaler timer; it reschedules itself.
type tickEvent struct {
	p  *Pool
	st *serveState
}

func (e *tickEvent) Fire(now time.Duration) { e.p.tick(e.st, now) }

// instEvent kinds.
const (
	evComplete  = iota // service finished: record latency, free the instance
	evBootReady        // cold boot finished: serve the request that triggered it
	evReady            // instance dispatchable (scale-up boot, restart or recycle done)
	evCrash            // instance fail-stopped mid-request (fault hazard)
	evKinds
)

// instEvent is the per-instance timer payload (see instance.ev); arm
// fills and schedules it.
type instEvent struct {
	p    *Pool
	st   *serveState
	inst *instance
	kind int
	// req is the request completing (latency runs from its Start),
	// waiting on this boot, or crashed with the instance.
	req Request
	svc time.Duration // evComplete: service time; evCrash: partial work burned
}

// arm makes inst's one pending event a kind event carrying req and
// svc, firing at t.
func (p *Pool) arm(st *serveState, inst *instance, t time.Duration, kind int, req Request, svc time.Duration) {
	inst.ev = instEvent{p: p, st: st, inst: inst, kind: kind, req: req, svc: svc}
	st.pending[kind]++
	st.loop.ScheduleAt(t, &inst.ev)
}

func (e *instEvent) Fire(now time.Duration) {
	p, st := e.p, e.st
	st.pending[e.kind]--
	switch e.kind {
	case evComplete:
		st.endService(now, e.svc)
		lat := now - e.req.Start()
		st.rep.Latency.Record(lat)
		st.winLat.Record(lat)
		if w := p.cfg.SeriesWindow; w > 0 {
			idx := int(now / w)
			for len(st.rep.Series) <= idx {
				st.rep.Series = append(st.rep.Series, Histogram{})
			}
			st.rep.Series[idx].Record(lat)
		}
		// EWMA of service time feeds the autoscaler's Little's-law
		// estimate (alpha = 1/8).
		if st.ewmaService == 0 {
			st.ewmaService = e.svc
		} else {
			st.ewmaService += (e.svc - st.ewmaService) / 8
		}
		p.finishInstance(st, e.inst, now)
	case evBootReady:
		p.startService(st, e.inst, e.req, now)
	case evReady:
		p.dispatch(st, e.inst, now)
	case evCrash:
		st.endService(now, e.svc) // the partial work burned before the crash
		// Copy the victim out first: e aliases inst.ev, which
		// crashInstance reuses for the restarted instance's ready event.
		req := e.req
		st.rep.Crashes++
		p.crashInstance(st, e.inst, now)
		if req.Attempt >= crashRetries {
			st.rep.Failed++
		} else {
			req.Attempt++
			st.rep.Retried++
			p.redispatch(st, req, now)
		}
	}
}

// endService closes a service window at now that burned svc of the
// instance's time, completed or cut short by a crash.
func (st *serveState) endService(now, svc time.Duration) {
	st.lastEnd = max(st.lastEnd, now)
	st.rep.Busy += svc
}

// Serve routes every request of w through the fleet on a fresh
// virtual-time event loop and reports what happened. Warm instances
// serve immediately; misses cold-boot (paying the full boot pipeline on
// a fresh per-instance machine) up to MaxInstances, beyond which
// requests queue FIFO. The autoscaler resizes the warm set every
// ScaleWindow from the observed arrival rate, mean service time and
// window p99.
//
// Serve is deterministic: same workload, same config, same report.
// Concurrent Serve calls are safe and serialize.
func (p *Pool) Serve(w Workload) (*Report, error) { return p.ServeWith(w, ServeOpts{}) }

// ServeOpts parameterizes ServeWith beyond the plain Serve contract.
type ServeOpts struct {
	// Shards > 1 shards the trace and the fleet across that many event
	// loops (see ServeWith).
	Shards int
	// CrashAt, when > 0, fail-stops the host at that virtual time:
	// events through CrashAt dispatch normally, then everything still
	// outstanding — in service, queued, waiting on a boot, or not yet
	// delivered — counts Failed, and the pool is closed: a fail-stopped
	// host is dead. The cluster serves the pool life a planned host
	// crash ends this way.
	CrashAt time.Duration
}

// ServeWith is the pool's one serve entry: Serve calls it, and so does
// the cluster for every host, live (CrashAt zero) or fail-stopped
// mid-trace. It takes the pool lock, refuses a closed pool and decides
// sharded-or-not; nothing below it re-decides any of that. A feed, or
// a shard's share of one, is read to its end or let go of, whatever the
// serve did, so its producer never waits on it after ServeWith returns.
//
// With Shards > 1 the trace and the fleet are split across per-shard
// event loops on separate goroutines, and the shard reports merge in
// shard order — the scale-out path for multi-million-request traces.
// Requests are dealt round-robin onto shards (the partition depends
// only on arrival order) through one chunked Feed — w itself when it is
// one, else a feed a pump goroutine fills from w — so no shard's share
// is ever copied out whole. Each shard runs Serve's algorithm over its
// own sub-fleet with MinWarm, MaxInstances, ColdBurst and BrownoutWater
// split evenly; instance ids are interleaved (shard i boots ids i,
// i+shards, ...) so per-instance boot seeds stay disjoint and
// reproducible. The merged report is therefore identical across runs
// regardless of goroutine scheduling, and Shards <= 1 is exactly Serve.
// Shard fleets are per-call: each run boots them fresh (their boots are
// recorded in the report, like Serve's warm floor) and closes them when
// the trace drains; the pool's own fleet is left for later serves.
func (p *Pool) ServeWith(w Workload, o ServeOpts) (*Report, error) {
	if f, ok := w.(interface{ stop() }); ok {
		defer f.stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("ukpool: serve on closed pool")
	}
	if o.Shards > 1 {
		return p.serveSharded(w, o.Shards, o.CrashAt)
	}
	return p.serveOne(w, o.CrashAt)
}

// serveOne serves w on one event loop over the pool's own fleet.
func (p *Pool) serveOne(w Workload, crashAt time.Duration) (*Report, error) {
	st := &serveState{w: w, rep: &Report{}}
	if p.cfg.NewLoop != nil {
		st.loop = p.cfg.NewLoop()
	} else {
		st.loop = sim.NewEventLoop()
	}
	st.arrEv = arrivalEvent{p: p, st: st}
	st.tickEv = tickEvent{p: p, st: st}

	// Warm floor first, so steady traffic starts against a warm fleet.
	insts, err := p.bootBatch(p.cfg.MinWarm - len(p.fleet))
	if err != nil {
		return nil, err
	}
	for _, inst := range insts {
		p.booted(st, inst)
		p.idle.pushBack(inst)
	}
	st.rep.PeakInstances = len(p.fleet)

	p.scheduleArrival(st)
	if !p.cfg.NoAutoscale {
		st.loop.ScheduleAfter(p.cfg.ScaleWindow, &st.tickEv)
	}
	if crashAt > 0 {
		for {
			t, ok := st.loop.Peek()
			if !ok || t > crashAt {
				break
			}
			st.loop.Step()
		}
		p.failStop(st)
	} else {
		st.loop.Run()
	}
	// Requests still queued when the loop stopped can only happen under
	// faults (a fail-stop, or the breaker emptied the fleet with the
	// autoscaler off); account them as lost rather than dropping them
	// silently.
	st.rep.Failed += st.queue.len()

	st.rep.Duration = st.lastEnd
	st.rep.FinalInstances = len(p.fleet)
	return st.rep, st.err
}

// serveSharded is the sharded engine behind ServeWith (see there for
// the contract).
func (p *Pool) serveSharded(w Workload, shards int, crashAt time.Duration) (*Report, error) {
	var wg sync.WaitGroup
	parts := dealShards(w, shards, &wg)

	// Shard instance ids start past everything this pool ever issued, so
	// the id-uniqueness spawn relies on (and the per-id boot seeds derived
	// from it) holds even when a Serve ran first.
	base := p.nextID
	ceil := func(v int) int { return (v + shards - 1) / shards }
	children := make([]*Pool, shards)
	for s := 0; s < shards; s++ {
		cfg := p.cfg
		cfg.MinWarm = ceil(cfg.MinWarm)
		cfg.MaxInstances = ceil(cfg.MaxInstances)
		cfg.ColdBurst = ceil(cfg.ColdBurst)
		if cfg.BrownoutWater > 0 {
			cfg.BrownoutWater = ceil(cfg.BrownoutWater)
		}
		// Children remap instance ids into the parent's spawn; the
		// template stays with the parent, so they release nothing.
		children[s] = &Pool{cfg: cfg, spawn: func(id int, m *sim.Machine) (*ukboot.VM, error) {
			return p.spawn(base+id*shards+s, m)
		}}
	}

	// Every shard runs on a goroutine of its own, never in a bounded
	// worker slot: a shard that runs ahead waits for the others to pass
	// the feed's chunks, and at one P a worker pool would run the shards
	// one after another and wedge there. Results land in per-shard slots
	// and merge in shard order below, so the report is independent of
	// scheduling.
	reps := make([]*Report, shards)
	errs := make([]error, shards)
	wg.Add(shards)
	for s := range shards {
		go func() {
			defer wg.Done()
			reps[s], errs[s] = children[s].ServeWith(parts[s], ServeOpts{CrashAt: crashAt})
		}()
	}
	wg.Wait()

	// Burn the id range the shards consumed so later Serve calls on
	// this pool cannot collide with it. Shards that fail-stopped take
	// the host with them.
	maxChild := 0
	for _, c := range children {
		maxChild = max(maxChild, c.nextID)
		p.closed = p.closed || c.closed
	}
	p.nextID = base + maxChild*shards

	merged := &Report{}
	var firstErr error
	for s := 0; s < shards; s++ {
		if errs[s] != nil && firstErr == nil {
			firstErr = fmt.Errorf("ukpool: shard %d: %w", s, errs[s])
		}
		if reps[s] != nil {
			merged.Merge(reps[s])
		}
		children[s].Close()
	}
	return merged, firstErr
}
