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
// instead; Close still releases the fleet and the boot template.
func (p *Pool) failStop(st *serveState) {
	p.closed = true
	st.rep.Failed += st.busy() + st.pending[evBootReady]
	if !st.wDone {
		// The arrival already scheduled but never dispatched, then the
		// rest of the trace.
		st.rep.Requests++
		st.rep.Failed++
		for _, ok := st.w.Next(); ok; _, ok = st.w.Next() {
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
	if p.cfg.BreakerAfter > 0 && inst.crashes >= p.cfg.BreakerAfter {
		st.rep.BreakerTrips++
		p.retire(inst)
		return
	}
	// The restart boots into the same instance, on the same machine:
	// crashes and fleet position carry over, the rest starts afresh.
	inst.vm.Close()
	crashes, idx := inst.crashes, inst.fleetIdx
	id := p.nextID
	p.nextID++
	if err := p.spawnIn(inst, id); err != nil {
		st.err = fmt.Errorf("ukpool: restart crashed instance %d: %w", inst.id, err)
		p.retire(inst)
		return
	}
	inst.crashes, inst.fleetIdx = crashes, idx
	p.booted(st, inst)
	p.arm(st, inst, now+inst.bootDur, evReady, Request{}, 0)
}
