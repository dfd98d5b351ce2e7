package ukpool

import (
	"fmt"
	"time"
)

// scheduleArrival pulls the next request off the workload and schedules
// its arrival event.
func (p *Pool) scheduleArrival(st *serveState) {
	if st.err != nil {
		st.wDone = true
		return
	}
	req, ok := st.w.Next()
	if !ok {
		st.wDone = true
		return
	}
	st.arrEv.req = req
	st.loop.ScheduleAt(req.Arrival, &st.arrEv)
}

// expired reports whether req's deadline (if any) has passed at now.
func expired(req Request, now time.Duration) bool {
	return req.Deadline > 0 && now >= req.Deadline
}

// arrive routes one request: warm hit, cold boot, or queue.
func (p *Pool) arrive(st *serveState, req Request, now time.Duration) {
	st.rep.Requests++
	st.winArrivals++
	if p.cfg.DefaultDeadline > 0 && req.Deadline == 0 {
		origin := req.Arrival
		if req.Origin != 0 {
			origin = req.Origin
		}
		req.Deadline = origin + p.cfg.DefaultDeadline
	}
	// A request can show up dead on arrival when routing and link delay
	// already ate its whole allowance; booting or queueing for it would
	// be pure waste.
	if expired(req, now) {
		st.rep.Expired++
		p.scheduleArrival(st)
		return
	}
	switch {
	case p.idle.len() > 0:
		inst := p.takeIdle()
		st.rep.WarmHits++
		p.startService(st, inst, req, now)
	case len(p.fleet) < p.cfg.MaxInstances && st.booting < p.cfg.ColdBurst:
		st.rep.ColdBoots++
		st.winCold++
		inst, err := p.bootOne()
		if err != nil {
			st.err = fmt.Errorf("ukpool: cold boot: %w", err)
			break
		}
		p.booted(st, inst)
		st.rep.ColdBoot.Record(inst.bootDur)
		if len(p.fleet) > st.rep.PeakInstances {
			st.rep.PeakInstances = len(p.fleet)
		}
		st.booting++
		st.bootWait++
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evBootReady, req: req}
		st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
	default:
		st.rep.Queued++
		st.queue.pushBack(req)
	}
	p.scheduleArrival(st)
}

// startService charges the request's work to the instance's own CPU and
// schedules the completion on the instance's reusable event. Requests
// whose deadline passed while they waited (on a boot, in the queue, or
// between crash retries) are dropped here, before any service time is
// charged, and the instance goes back to draining the queue.
func (p *Pool) startService(st *serveState, inst *instance, req Request, now time.Duration) {
	if expired(req, now) {
		st.rep.Expired++
		p.dispatch(st, inst, now)
		return
	}
	brown := p.cfg.BrownoutWater > 0 && st.queue.len() >= p.cfg.BrownoutWater
	if brown {
		st.rep.Browned++
	}
	svc := p.serviceTime(inst, req.Bytes, brown)
	if f := p.cfg.SlowFactor; f > 1 && now >= p.cfg.SlowFrom &&
		(p.cfg.SlowTo <= p.cfg.SlowFrom || now < p.cfg.SlowTo) {
		svc = time.Duration(float64(svc) * f)
	}
	st.busy++
	// The fault hazard flips the request's deterministic coin: on a
	// crash the instance dies a fraction of the way through the service
	// window and only that partial work happens.
	if crash, frac := p.cfg.Faults.Draw(p.cfg.FaultSeed, req.Arrival, req.Bytes, req.Key, req.Attempt); crash {
		partial := time.Duration(float64(svc) * frac)
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evCrash, req: req, svc: partial}
		st.loop.ScheduleAt(now+partial, &inst.ev)
		return
	}
	done := now + svc
	// Latency runs from the request's origin: its front-door arrival
	// when the cluster router stamped one, its host arrival otherwise —
	// so queue wait, boot wait, service and any routing delay all count.
	origin := req.Arrival
	if req.Origin != 0 {
		origin = req.Origin
	}
	inst.ev = instEvent{
		p: p, st: st, inst: inst,
		kind: evComplete,
		lat:  done - origin,
		svc:  svc,
	}
	st.loop.ScheduleAt(done, &inst.ev)
}

// redispatch re-enters a crashed request: straight onto a warm
// instance when one is idle, else the queue (its latency keeps running
// from the original origin, so the crash detour shows up in the tail).
func (p *Pool) redispatch(st *serveState, req Request, now time.Duration) {
	if p.idle.len() > 0 {
		p.startService(st, p.takeIdle(), req, now)
		return
	}
	st.rep.Queued++
	st.queue.pushBack(req)
}

// finishInstance recycles the instance if due, then dispatches it. The
// heap re-init is charged to the instance clock AND delays its next
// dispatch by the same amount on the shared timeline — a recycling
// instance is not serving.
func (p *Pool) finishInstance(st *serveState, inst *instance, now time.Duration) {
	inst.served++
	inst.crashes = 0 // a completed request closes the breaker's strike count
	if p.cfg.RecycleEvery > 0 && inst.served >= p.cfg.RecycleEvery {
		m := inst.vm.Machine
		start := m.CPU.Cycles()
		if err := inst.vm.Reset(); err != nil {
			st.err = fmt.Errorf("ukpool: recycle instance %d: %w", inst.id, err)
			return
		}
		inst.served = 0
		st.rep.Resets++
		resetDur := m.CPU.Duration(m.CPU.Cycles() - start)
		st.booting++ // out of rotation until the re-init completes
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
		st.loop.ScheduleAt(now+resetDur, &inst.ev)
		return
	}
	p.dispatch(st, inst, now)
}

// serviceTime performs one request's work on the instance: syscalls
// through the shim, two virtqueue kicks (amortized over KickBatch),
// payload copies in and out (elided under ZeroCopy), the application
// cycles, and a real malloc/free of the payload buffer on the instance
// heap. In brownout mode the application work is halved and RequestWork
// is skipped — the degraded variant a pressured server answers with
// instead of dropping.
func (p *Pool) serviceTime(inst *instance, bytes int, brown bool) time.Duration {
	m := inst.vm.Machine
	start := m.CPU.Cycles()
	kicks := 2 * m.Costs.VMExit / uint64(p.cfg.KickBatch)
	app := p.cfg.AppCycles
	if brown {
		app /= 2
	}
	m.Charge(uint64(p.cfg.SyscallsPerRequest)*m.Costs.UnikraftSyscall +
		kicks + app)
	if !p.cfg.ZeroCopy {
		m.ChargeCopy(bytes) // rx
		m.ChargeCopy(bytes) // tx
	}
	if bytes > 0 {
		if ptr, err := inst.vm.Heap.Malloc(bytes); err == nil {
			_ = inst.vm.Heap.Free(ptr)
		}
	}
	if p.cfg.RequestWork != nil && !brown {
		p.reqSeq++
		p.cfg.RequestWork(inst.vm, p.reqSeq)
	}
	return m.CPU.Duration(m.CPU.Cycles() - start)
}

// dispatch routes a ready instance: the oldest still-live queued
// request if any are waiting, else back to the warm set. Queued
// requests whose deadline passed while they waited are discarded here —
// iteratively, so a long run of expired entries never recurses — which
// is what keeps an expired request from ever being served ahead of a
// live one.
func (p *Pool) dispatch(st *serveState, inst *instance, now time.Duration) {
	for st.queue.len() > 0 {
		req := st.queue.popFront()
		if expired(req, now) {
			st.rep.Expired++
			continue
		}
		p.startService(st, inst, req, now)
		return
	}
	p.idle.pushBack(inst)
}

// takeIdle pops the most recently idled instance (LIFO keeps the hot
// few instances hot and lets the tail go cold for retirement).
func (p *Pool) takeIdle() *instance { return p.idle.popBack() }

// takeColdest pops the longest-idle instance — the retirement end of
// the deque.
func (p *Pool) takeColdest() *instance { return p.idle.popFront() }
