package ukpool

import (
	"fmt"
	"time"

	"unikraft/internal/sim"
)

// scheduleArrival pulls the next request off the workload and schedules
// its arrival event.
func (p *Pool) scheduleArrival(st *serveState) {
	if st.err == nil {
		if req, ok := st.w.Next(); ok {
			st.arrEv.req = req
			st.loop.ScheduleAt(req.Arrival, &st.arrEv)
			return
		}
	}
	st.wDone = true
}

// expire reports whether req's deadline (if any) has passed at now,
// and counts it Expired if so: arrival, service start and the queue pop
// all drop a dead request through here, before any work is spent on it.
func (st *serveState) expire(req Request, now time.Duration) bool {
	if req.Deadline == 0 || now < req.Deadline {
		return false
	}
	st.rep.Expired++
	return true
}

// arrive routes one request: warm hit, cold boot, or queue.
func (p *Pool) arrive(st *serveState, req Request, now time.Duration) {
	st.rep.Requests++
	st.winArrivals++
	if p.cfg.DefaultDeadline > 0 && req.Deadline == 0 {
		req.Deadline = req.Start() + p.cfg.DefaultDeadline
	}
	// A request can show up dead on arrival when routing and link delay
	// already ate its whole allowance; booting or queueing for it would
	// be pure waste.
	if st.expire(req, now) {
		p.scheduleArrival(st)
		return
	}
	switch {
	case p.idle.len() > 0:
		st.rep.WarmHits++
		p.startService(st, p.idle.popBack(), req, now)
	case len(p.fleet) < p.cfg.MaxInstances && st.booting() < p.cfg.ColdBurst:
		st.rep.ColdBoots++
		st.winCold++
		inst, err := p.bootOne()
		if err != nil {
			st.err = fmt.Errorf("ukpool: cold boot: %w", err)
			break
		}
		p.booted(st, inst)
		st.rep.ColdBoot.Record(inst.bootDur)
		st.rep.PeakInstances = max(st.rep.PeakInstances, len(p.fleet))
		p.arm(st, inst, now+inst.bootDur, evBootReady, req, 0)
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
	if st.expire(req, now) {
		p.dispatch(st, inst, now)
		return
	}
	brown := p.cfg.BrownoutWater > 0 && st.queue.len() >= p.cfg.BrownoutWater
	if brown {
		st.rep.Browned++
	}
	svc := p.serviceTime(inst, req.Bytes, brown)
	if sl := p.cfg.Slow; sl.Factor > 1 && sl.Covers(now) {
		svc = time.Duration(float64(svc) * sl.Factor)
	}
	// The fault hazard flips the request's deterministic coin: on a
	// crash the instance dies a fraction of the way through the service
	// window and only that partial work happens.
	if crash, frac := p.cfg.Faults.Draw(p.cfg.FaultSeed, req.Arrival, req.Bytes, req.Key, req.Attempt); crash {
		partial := time.Duration(float64(svc) * frac)
		p.arm(st, inst, now+partial, evCrash, req, partial)
		return
	}
	// Latency runs from the request's Start, so queue wait, boot wait,
	// service and any routing delay all count.
	p.arm(st, inst, now+svc, evComplete, req, svc)
}

// redispatch re-enters a crashed request: straight onto a warm
// instance when one is idle, else the queue (its latency keeps running
// from the original origin, so the crash detour shows up in the tail).
func (p *Pool) redispatch(st *serveState, req Request, now time.Duration) {
	if p.idle.len() > 0 {
		p.startService(st, p.idle.popBack(), req, now)
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
	if inst.served >= recycleEvery {
		m := inst.vm.Machine
		start := m.CPU.Cycles()
		if err := inst.vm.Reset(); err != nil {
			st.err = fmt.Errorf("ukpool: recycle instance %d: %w", inst.id, err)
			return
		}
		inst.served = 0
		st.rep.Resets++
		// Out of rotation until the re-init completes.
		p.arm(st, inst, now+m.CPU.Duration(m.CPU.Cycles()-start), evReady, Request{}, 0)
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
	app := p.cfg.AppCycles
	if brown {
		app /= 2
	}
	m.Pay(sim.CostUnikraftSyscall, uint64(p.cfg.SyscallsPerRequest))
	m.Spend(sim.LayerPlatform, sim.Cycles(sim.CostVMExit, 2)/uint64(p.cfg.KickBatch))
	m.Spend(sim.LayerApp, app)
	if !p.cfg.ZeroCopy && bytes > 0 {
		m.Pay(sim.CostCopySetup, 2) // rx and tx
		m.Pay(sim.CostCopy, uint64(bytes))
		m.Pay(sim.CostCopy, uint64(bytes))
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
		if st.expire(req, now) {
			continue
		}
		p.startService(st, inst, req, now)
		return
	}
	p.idle.pushBack(inst)
}
