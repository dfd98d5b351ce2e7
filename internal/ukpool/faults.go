package ukpool

import (
	"fmt"
	"time"
)

// failStop accounts a fail-stop crash of the whole host: requests in
// service, waiting on boots, queued (serveOne's tail counts those), or
// consumed from the workload but never delivered are all Failed. Their partially-burned service is
// not charged — the host that did the work is gone. So is the pool:
// the loop stopped at the cutoff, so in-service and booting instances
// never return to idle, and a later serve would cold-boot against a
// phantom-full fleet. Marking the pool closed makes that serve fail
// instead; Close still releases the fleet and runs the OnClose hook.
func (p *Pool) failStop(st *serveState) {
	p.closed = true
	st.rep.Failed += st.busy + st.bootWait
	st.busy, st.bootWait, st.booting = 0, 0, 0
	if !st.wDone {
		// The arrival already scheduled but never dispatched, then the
		// rest of the trace.
		st.rep.Requests++
		st.rep.Failed++
		for {
			if _, ok := st.w.Next(); !ok {
				break
			}
			st.rep.Requests++
			st.rep.Failed++
		}
		st.wDone = true
	}
}

// crashInstance replaces (or retires) an instance that fail-stopped
// mid-request. Below the breaker threshold the slot is restarted
// through the usual spawn path — a fork clone when the pool has a
// snapshot template, the "restart is cheaper than tolerating a sick
// instance" economics the fault model exists to exercise. At the
// threshold the circuit breaker gives up on the slot: repeated crashes
// point at the instance's state, and re-forking it forever would burn
// boot capacity for nothing.
func (p *Pool) crashInstance(st *serveState, inst *instance, now time.Duration) {
	inst.crashes++
	old := inst.vm
	if p.cfg.BreakerAfter > 0 && inst.crashes >= p.cfg.BreakerAfter {
		st.rep.BreakerTrips++
		p.dropSlot(inst)
		old.Close()
		return
	}
	old.Close()
	id := p.nextID
	p.nextID++
	vm, err := p.spawn(id)
	if err != nil {
		st.err = fmt.Errorf("ukpool: restart crashed instance %d: %w", inst.id, err)
		p.dropSlot(inst)
		return
	}
	inst.id, inst.vm, inst.served = id, vm, 0
	inst.bootDur = vm.Report.Total()
	p.booted(st, inst)
	st.booting++
	inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
	st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
}
