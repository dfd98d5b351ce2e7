package ukpool

import (
	"fmt"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// instance is one booted unikernel in the fleet.
type instance struct {
	id      int
	vm      *ukboot.VM
	bootDur time.Duration
	served  int // requests since the last heap reset
	crashes int // consecutive crashes (reset on completion) for the breaker
	// fleetIdx is the instance's position in Pool.fleet, maintained so
	// retirement is O(1) instead of a fleet scan.
	fleetIdx int
	// ev is the instance's reusable timer event (service completion,
	// boot-ready, recycle-ready). At most one is outstanding per
	// instance at any moment, so the struct is embedded and recycled —
	// the hot serving path schedules no closures and allocates nothing.
	ev instEvent
}

// Prewarm boots the fleet up to n instances (batched, concurrently),
// recording nothing. Serve prewarms to MinWarm automatically; callers
// that want boot costs off the serving path can prewarm larger sets
// explicitly.
func (p *Pool) Prewarm(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("ukpool: prewarm on closed pool")
	}
	insts, err := p.bootBatch(n - len(p.fleet))
	if err != nil {
		return err
	}
	for _, inst := range insts {
		p.idle.pushBack(inst)
	}
	return nil
}

// dropSlot removes inst from the fleet (O(1) via its fleet index)
// without touching its VM: the caller owns closing it — it may already
// be dead.
func (p *Pool) dropSlot(inst *instance) {
	last := len(p.fleet) - 1
	i := inst.fleetIdx
	p.fleet[i] = p.fleet[last]
	p.fleet[i].fleetIdx = i
	p.fleet[last] = nil
	p.fleet = p.fleet[:last]
}

// spawn instantiates one fresh instance: the snapshot-fork path when
// the pool has one, the full boot pipeline otherwise.
func (p *Pool) spawn(id int) (*ukboot.VM, error) {
	if p.cfg.ForkBoot != nil {
		return p.cfg.ForkBoot(id)
	}
	return p.boot(id)
}

// bootOne boots a single instance and adds it to the fleet (not idle:
// the caller owns routing it).
func (p *Pool) bootOne() (*instance, error) {
	id := p.nextID
	p.nextID++
	vm, err := p.spawn(id)
	if err != nil {
		return nil, err
	}
	inst := &instance{id: id, vm: vm, bootDur: vm.Report.Total(), fleetIdx: len(p.fleet)}
	p.fleet = append(p.fleet, inst)
	return inst, nil
}

// bootBatch boots n instances concurrently on their own machines under
// the bounded worker pool — the batched scale-up path. Ids are assigned
// up front and instances are added to the fleet in id order so runs
// stay deterministic. On any failure the successful boots are closed
// and the first error returned.
func (p *Pool) bootBatch(n int) ([]*instance, error) {
	if n <= 0 {
		return nil, nil
	}
	insts := make([]*instance, n)
	errs := make([]error, n)
	firstID := p.nextID
	p.nextID += n
	sim.ParallelFor(n, func(slot int) {
		id := firstID + slot
		vm, err := p.spawn(id)
		if err != nil {
			errs[slot] = err
			return
		}
		insts[slot] = &instance{id: id, vm: vm, bootDur: vm.Report.Total()}
	})
	for _, err := range errs {
		if err != nil {
			for _, inst := range insts {
				if inst != nil {
					inst.vm.Close()
				}
			}
			return nil, err
		}
	}
	for _, inst := range insts {
		inst.fleetIdx = len(p.fleet)
		p.fleet = append(p.fleet, inst)
	}
	return insts, nil
}
