package ukpool

import (
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

// takeInstance hands out a retired instance for the next boot, or a new
// one when none waits; the boot fills it in.
func (p *Pool) takeInstance() *instance {
	if n := len(p.spare); n > 0 {
		inst := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return inst
	}
	return &instance{}
}

// machine is the machine inst's last VM ran on, for its next boot to
// reset; nil for an instance that never booted.
func (inst *instance) machine() *sim.Machine {
	if inst.vm == nil {
		return nil
	}
	return inst.vm.Machine
}

// spawnIn boots instance id into inst, on the machine inst's last VM
// ran on, and resets inst's bookkeeping for the new VM.
func (p *Pool) spawnIn(inst *instance, id int) error {
	vm, err := p.spawn(id, inst.machine())
	if err != nil {
		return err
	}
	*inst = instance{id: id, vm: vm, bootDur: vm.Report.Total()}
	return nil
}

// retire takes inst out of the fleet, closes its VM and puts it on the
// spare list. The caller guarantees no event of inst's is pending: the
// next boot that takes it rearms its one event.
func (p *Pool) retire(inst *instance) {
	p.dropSlot(inst)
	inst.vm.Close()
	p.spare = append(p.spare, inst)
}

// bootOne boots a single instance and adds it to the fleet (not idle:
// the caller owns routing it).
func (p *Pool) bootOne() (*instance, error) {
	id := p.nextID
	p.nextID++
	inst := p.takeInstance()
	if err := p.spawnIn(inst, id); err != nil {
		p.spare = append(p.spare, inst)
		return nil, err
	}
	inst.fleetIdx = len(p.fleet)
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
	for slot := range insts {
		insts[slot] = p.takeInstance()
	}
	errs := make([]error, n)
	firstID := p.nextID
	p.nextID += n
	sim.ParallelFor(n, func(slot int) {
		errs[slot] = p.spawnIn(insts[slot], firstID+slot)
	})
	for _, err := range errs {
		if err != nil {
			for slot, inst := range insts {
				if errs[slot] == nil {
					inst.vm.Close()
				}
			}
			p.spare = append(p.spare, insts...)
			return nil, err
		}
	}
	for _, inst := range insts {
		inst.fleetIdx = len(p.fleet)
		p.fleet = append(p.fleet, inst)
	}
	return insts, nil
}
