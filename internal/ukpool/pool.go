// Package ukpool is the warm-pool serving layer: it turns the paper's
// millisecond boot times into served traffic. A Pool keeps a set of
// pre-booted ("warm") unikernel instances of one spec, boots cold
// instances on demand when arrivals outrun the warm set, routes a
// request stream to instances over a deterministic virtual-time event
// loop, and autoscales the warm set from the observed arrival rate and
// tail latency — the LightVM/Firecracker serverless story on top of the
// Unikraft boot pipeline.
//
// A pool is configured by one Config value: New fills its zero fields
// with the defaults documented on them, so a caller writes a Config
// literal naming only what it changes.
package ukpool

import (
	"sync"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// Pool keeps a fleet of instances of one spec and serves request
// streams through it. All methods are safe for concurrent use;
// concurrent Serve calls serialize on the pool's fleet.
type Pool struct {
	cfg Config
	// spawn instantiates instance id on its own simulated machine: m,
	// a retired instance's, reset for id, or a new one when m is nil;
	// a full boot, or a snapshot fork when the pool has a template. Ids
	// are unique for the pool's lifetime, so per-instance seeds derived
	// from them stay deterministic. It is called from several goroutines
	// during batched scale-ups and sharded serves.
	spawn func(id int, m *sim.Machine) (*ukboot.VM, error)
	// release frees the pool's boot template; Close runs it once. Nil
	// for a pool without one.
	release func()

	mu     sync.Mutex
	nextID int
	fleet  []*instance // every live instance
	// idle is the subset currently idle. Serving pops the back, the most
	// recently idled (LIFO keeps the hot few instances hot), and the
	// autoscaler retires from the front, the longest idle.
	idle deque[*instance]
	// spare holds retired instances, their VMs closed and no event of
	// theirs pending, for the next boot to take with their machines.
	spare  []*instance
	closed bool
	// reqSeq numbers dispatched requests for Config.RequestWork
	// (monotone under the pool lock; per child pool in a sharded serve,
	// so hooks stay deterministic there too).
	reqSeq int
}

// New builds the pool every serving surface shares — the SDK's
// NewPool, each NewCluster host, and the serving experiments: instance
// id boots from ctx on a machine seeded from seed and id (see
// instanceMachine), configured by cfg with its zero fields at their
// defaults. With fork set the pool owns a boot template: one
// full-pipeline boot on instance 0's machine here, snapshot-fork
// clones from then on (warm floor, demand cold boots and scale-ups
// alike), released by Close. No instance boots until a serve runs.
func New(ctx *ukboot.Context, seed uint64, fork bool, cfg Config) (*Pool, error) {
	if !fork {
		return newPool(func(id int, m *sim.Machine) (*ukboot.VM, error) {
			return ctx.Boot(instanceMachine(seed, id, m))
		}, nil, cfg), nil
	}
	snap, err := ctx.Snapshot(instanceMachine(seed, 0, nil))
	if err != nil {
		return nil, err
	}
	return newPool(func(id int, m *sim.Machine) (*ukboot.VM, error) {
		return ctx.Fork(instanceMachine(seed, id, m), snap)
	}, snap.Close, cfg), nil
}

// newPool is a pool over any spawn func, release (may be nil) run once
// by Close.
func newPool(spawn func(id int, m *sim.Machine) (*ukboot.VM, error), release func(), cfg Config) *Pool {
	return &Pool{cfg: cfg.withDefaults(), spawn: spawn, release: release}
}

// instanceMachine is the machine instance id of a pool over seed boots
// on: m reset for id when a retired instance left it, else a new one.
// Either is the machine sim.NewMachineWithSeed makes for the id's seed.
func instanceMachine(seed uint64, id int, m *sim.Machine) *sim.Machine {
	// SplitMix64 increment keeps per-instance seeds well spread.
	seed += uint64(id) * 0x9E3779B97F4A7C15
	if m == nil {
		return sim.NewMachineWithSeed(seed)
	}
	m.Reset(seed)
	return m
}

// HostSeed is the pool seed of cluster host host: host fleets stay
// deterministic yet independent (any fixed odd multiplier keeps host
// salts distinct), and host 0 boots exactly the machines of a
// standalone pool over seed.
func HostSeed(seed uint64, host int) uint64 {
	return seed + uint64(host)*0xA24BAED4963EE407
}

// Close retires every instance and releases the pool's boot template,
// if it has one. The pool must not be serving.
func (p *Pool) Close() {
	p.mu.Lock()
	for _, inst := range p.fleet {
		inst.vm.Close()
	}
	// The template is released once however often Close is called, and
	// also when a fail-stop serve marked the pool closed before anyone
	// released it.
	release := p.release
	p.release = nil
	p.fleet, p.spare, p.closed = nil, nil, true
	p.idle.reset()
	p.mu.Unlock()
	// Outside the lock: a release that inspects the pool must not
	// deadlock.
	if release != nil {
		release()
	}
}
