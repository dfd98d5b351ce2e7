package ukpool

import (
	"fmt"
	"math"
	"time"
)

// booted accounts one instantiation — warm floor, cold boot, scale-up
// or crash restart; a fork when the pool has a template — in the report
// and feeds its time into the autoscaler's boot cost model (alpha =
// 1/8, like the service EWMA).
func (p *Pool) booted(st *serveState, inst *instance) {
	d := inst.bootDur
	st.rep.Boot.Record(d)
	if p.cfg.ForkBoot != nil {
		st.rep.ForkBoots++
	}
	if st.ewmaBoot == 0 {
		st.ewmaBoot = d
	} else {
		st.ewmaBoot += (d - st.ewmaBoot) / 8
	}
}

// tick is one autoscaler evaluation: size the warm set from the
// window's arrival rate and the service-time EWMA (Little's law with
// headroom), and override upward when the window p99 blows the SLO.
func (p *Pool) tick(st *serveState, now time.Duration) {
	if st.err != nil {
		return // the serve run is failing; stop resizing and let it drain
	}
	rate := float64(st.winArrivals) / p.cfg.ScaleWindow.Seconds()
	desired := p.cfg.MinWarm
	if st.ewmaService > 0 {
		// Little's law over the effective residence time: service plus
		// the boot latency paid by the window's cold share. Expensive
		// boots make misses costly, so the controller holds more warm
		// capacity; snapshot forks shrink the term — and the fleet —
		// for the same traffic.
		eff := st.ewmaService
		if st.winArrivals > 0 && st.winCold > 0 && st.ewmaBoot > 0 {
			eff += time.Duration(float64(st.ewmaBoot) * float64(st.winCold) / float64(st.winArrivals))
		}
		need := int(math.Ceil(rate * eff.Seconds() * p.cfg.Headroom))
		if need > desired {
			desired = need
		}
	}
	if st.winLat.Count > 0 && p.cfg.TargetP99 > 0 && st.winLat.Quantile(0.99) > p.cfg.TargetP99 {
		grow := len(p.fleet) + (len(p.fleet)+1)/2
		if grow > desired {
			desired = grow
		}
	}
	if desired > p.cfg.MaxInstances {
		desired = p.cfg.MaxInstances
	}

	switch {
	case desired > len(p.fleet):
		st.rep.ScaleUps++
		insts, err := p.bootBatch(desired - len(p.fleet))
		if err != nil {
			st.err = fmt.Errorf("ukpool: scale-up: %w", err)
			return
		}
		for _, inst := range insts {
			p.booted(st, inst)
			st.booting++
			inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
			st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
		}
		if len(p.fleet) > st.rep.PeakInstances {
			st.rep.PeakInstances = len(p.fleet)
		}
	case desired < len(p.fleet) && p.idle.len() > 0:
		n := len(p.fleet) - desired
		if n > p.idle.len() {
			n = p.idle.len()
		}
		st.rep.ScaleDowns++
		for i := 0; i < n; i++ {
			inst := p.takeColdest()
			p.dropSlot(inst)
			inst.vm.Close()
			st.rep.Retired++
		}
	}

	st.winArrivals = 0
	st.winCold = 0
	st.winLat.Reset()
	if !st.wDone || st.busy > 0 || st.booting > 0 || st.queue.len() > 0 {
		st.loop.ScheduleAfter(p.cfg.ScaleWindow, &st.tickEv)
	}
}
