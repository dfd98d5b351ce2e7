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

	busy     int
	booting  int // cold + scale-up boots in flight
	bootWait int // subset of booting with a request waiting on the boot
	queue    deque[Request]
	lastEnd  time.Duration

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
	evReady            // instance dispatchable (scale-up boot or recycle done)
	evCrash            // instance fail-stopped mid-request (fault hazard)
)

// instEvent is the per-instance timer payload (see instance.ev).
type instEvent struct {
	p    *Pool
	st   *serveState
	inst *instance
	kind int
	req  Request       // evBootReady: the request waiting on this boot; evCrash: the victim
	lat  time.Duration // evComplete: end-to-end latency
	svc  time.Duration // evComplete: service time for the EWMA; evCrash: partial work burned
}

func (e *instEvent) Fire(now time.Duration) {
	p, st := e.p, e.st
	switch e.kind {
	case evComplete:
		st.busy--
		if now > st.lastEnd {
			st.lastEnd = now
		}
		st.rep.Latency.Record(e.lat)
		st.rep.Busy += e.svc
		st.winLat.Record(e.lat)
		if w := p.cfg.SeriesWindow; w > 0 {
			idx := int(now / w)
			for len(st.rep.Series) <= idx {
				st.rep.Series = append(st.rep.Series, Histogram{})
			}
			st.rep.Series[idx].Record(e.lat)
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
		st.booting--
		st.bootWait--
		p.startService(st, e.inst, e.req, now)
	case evReady:
		st.booting--
		p.dispatch(st, e.inst, now)
	case evCrash:
		st.busy--
		if now > st.lastEnd {
			st.lastEnd = now
		}
		// Copy the victim out first: e aliases inst.ev, which
		// crashInstance reuses for the restarted instance's ready event.
		req := e.req
		st.rep.Crashes++
		st.rep.Busy += e.svc // the partial work burned before the crash
		p.crashInstance(st, e.inst, now)
		if req.Attempt >= p.cfg.CrashRetries {
			st.rep.Failed++
		} else {
			req.Attempt++
			st.rep.Retried++
			p.redispatch(st, req, now)
		}
	}
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
	// Shards > 1 runs the sharded parallel engine (see ServeParallel).
	Shards int
	// CrashAt, when > 0, fail-stops the host at that virtual time:
	// events through CrashAt dispatch normally, then everything still
	// outstanding — in service, queued, waiting on a boot, or not yet
	// delivered — counts Failed, and the pool is closed: a fail-stopped
	// host is dead. The cluster serves the pool life a planned host
	// crash ends this way.
	CrashAt time.Duration
}

// ServeWith is the pool's one serve entry: Serve and ServeParallel call
// it, and so does the cluster for every host, live (CrashAt zero) or
// fail-stopped mid-trace. It takes the pool lock, refuses a closed pool
// and decides sharded-or-not; nothing below it re-decides any of that.
// A feed, or a shard's share of one, is read to its end or let go of,
// whatever the serve did, so its producer never waits on it after
// ServeWith returns.
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

// newLoop builds the event-loop engine a serve runs on: the configured
// one, or the timer wheel by default.
func (p *Pool) newLoop() sim.Loop {
	if p.cfg.NewLoop != nil {
		return p.cfg.NewLoop()
	}
	return sim.NewEventLoop()
}

// serveOne serves w on one event loop over the pool's own fleet.
func (p *Pool) serveOne(w Workload, crashAt time.Duration) (*Report, error) {
	st := &serveState{loop: p.newLoop(), w: w, rep: &Report{}}
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
	if p.cfg.Autoscale {
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
	for st.queue.len() > 0 {
		st.queue.popFront()
		st.rep.Failed++
	}

	st.rep.Duration = st.lastEnd
	st.rep.FinalInstances = len(p.fleet)
	return st.rep, st.err
}

// ServeParallel shards the trace and the fleet across per-shard event
// loops on separate goroutines and merges the shard reports in shard
// order — the scale-out path for multi-million-request traces that a
// single event loop serves sequentially.
//
// Requests are dealt round-robin onto shards (deterministic: the
// partition depends only on arrival order) through one chunked Feed —
// w itself when it is one, else a feed a pump goroutine fills from w —
// so no shard's share is ever copied out whole; each shard runs the same
// serving algorithm as Serve over its own sub-fleet with MinWarm,
// MaxInstances and ColdBurst split evenly; instance ids are interleaved
// (shard i boots ids i, i+shards, ...) so per-instance boot seeds stay
// disjoint and reproducible. The merged report is therefore identical
// across runs regardless of goroutine scheduling. ServeParallel is
// ServeWith with only Shards set, so with shards <= 1 it is exactly
// Serve.
//
// Shard fleets are per-call: each run boots them fresh (their boots are
// recorded in the report, like Serve's warm floor) and closes them when
// the trace drains. The pool's own fleet — including anything
// Prewarmed — is left untouched for subsequent Serve calls; callers
// alternating between the two engines should Prewarm only for the
// sequential one.
func (p *Pool) ServeParallel(w Workload, shards int) (*Report, error) {
	return p.ServeWith(w, ServeOpts{Shards: shards})
}

// serveSharded is the sharded engine behind ServeWith (see
// ServeParallel for the contract).
func (p *Pool) serveSharded(w Workload, shards int, crashAt time.Duration) (*Report, error) {
	var wg sync.WaitGroup
	parts := dealShards(w, shards, &wg)

	// Shard instance ids start past everything this pool ever issued, so
	// BootFunc's id-uniqueness contract (and the per-id boot seeds
	// derived from it) holds even when Serve/Prewarm ran first.
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
		// The template (and its OnClose hook) stays with the parent:
		// children remap instance ids into the parent's fork/boot funcs
		// and must not release shared state when they close.
		cfg.OnClose = nil
		shard := s
		remap := func(id int) int { return base + id*shards + shard }
		if fork := p.cfg.ForkBoot; fork != nil {
			cfg.ForkBoot = func(id int) (*ukboot.VM, error) { return fork(remap(id)) }
		}
		children[s] = &Pool{cfg: cfg, boot: func(id int) (*ukboot.VM, error) {
			return p.boot(remap(id))
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
		if c.nextID > maxChild {
			maxChild = c.nextID
		}
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
