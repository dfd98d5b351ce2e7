package ukpool

import (
	"sync"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// BootFunc boots one fresh instance on its own simulated machine. The
// id is unique per instance for the pool's lifetime, so implementations
// can derive deterministic per-instance seeds from it. Called from
// multiple goroutines during batched scale-ups (and from per-shard
// goroutines under ServeParallel); each call must use its own machine.
type BootFunc func(id int) (*ukboot.VM, error)

// Pool keeps a fleet of instances of one spec and serves request
// streams through it. All methods are safe for concurrent use;
// concurrent Serve calls serialize on the pool's fleet.
type Pool struct {
	cfg  Config
	boot BootFunc

	mu     sync.Mutex
	nextID int
	fleet  []*instance      // every live instance
	idle   deque[*instance] // subset currently idle (LIFO back = cache-warm)
	closed bool
	// reqSeq numbers dispatched requests for Config.RequestWork
	// (monotone under the pool lock; per child pool under
	// ServeParallel, so hooks stay deterministic there too).
	reqSeq int
}

// New builds a pool over boot. No instances are booted until Serve (or
// Prewarm) runs.
func New(boot BootFunc, opts ...Option) *Pool {
	cfg := Config{
		MinWarm:            8,
		MaxInstances:       1024,
		ColdBurst:          32,
		SyscallsPerRequest: 4,
		AppCycles:          12_000,
		RecycleEvery:       4096,
		ScaleWindow:        50 * time.Millisecond,
		TargetP99:          2 * time.Millisecond,
		Headroom:           2.0,
		Autoscale:          true,
		KickBatch:          1,
		CrashRetries:       2,
		BreakerAfter:       3,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.MinWarm < 1 {
		cfg.MinWarm = 1
	}
	if cfg.MaxInstances < cfg.MinWarm {
		cfg.MaxInstances = cfg.MinWarm
	}
	if cfg.ScaleWindow <= 0 {
		cfg.ScaleWindow = 50 * time.Millisecond
	}
	if cfg.Headroom < 1 {
		cfg.Headroom = 1
	}
	if cfg.ColdBurst < 1 {
		cfg.ColdBurst = 1
	}
	if cfg.KickBatch < 1 {
		cfg.KickBatch = 1
	}
	return &Pool{cfg: cfg, boot: boot}
}

// NewFleet builds the pool every serving surface shares — the SDK's
// NewPool, each NewCluster host, and the serving experiments: instance
// id boots from ctx on machine(id). With fork set the pool owns a boot
// template: one full-pipeline boot on machine(0) here, snapshot-fork
// clones from then on (warm floor, demand cold boots and scale-ups
// alike), released by Close. opts apply after the fork wiring.
func NewFleet(ctx *ukboot.Context, machine func(id int) *sim.Machine, fork bool, opts ...Option) (*Pool, error) {
	boot := func(id int) (*ukboot.VM, error) { return ctx.Boot(machine(id)) }
	if !fork {
		return New(boot, opts...), nil
	}
	snap, err := ctx.Snapshot(machine(0))
	if err != nil {
		return nil, err
	}
	return New(boot, append([]Option{
		WithForkBoot(func(id int) (*ukboot.VM, error) { return ctx.Fork(machine(id), snap) }),
		WithOnClose(snap.Close),
	}, opts...)...), nil
}

// HostMachines is the machine derivation NewFleet callers share: host
// fleets stay deterministic yet independent (any fixed odd multiplier
// keeps host salts distinct), and host 0 boots exactly the machines of
// a standalone pool over the same seed.
func HostMachines(seed uint64, host int) func(id int) *sim.Machine {
	seed += uint64(host) * 0xA24BAED4963EE407
	return func(id int) *sim.Machine {
		// SplitMix64 increment keeps per-instance seeds well spread.
		return sim.NewMachineWithSeed(seed + uint64(id)*0x9E3779B97F4A7C15)
	}
}

// Size reports the live fleet size (idle + busy).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fleet)
}

// Idle reports the number of idle warm instances.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle.len()
}

// Close retires every instance and runs the OnClose hook (releasing
// the snapshot template behind a fork-boot pool). The pool must not be
// serving.
func (p *Pool) Close() {
	p.mu.Lock()
	for _, inst := range p.fleet {
		inst.vm.Close()
	}
	// The hook runs once however often Close is called, and also when a
	// fail-stop serve marked the pool closed before anyone released it.
	hook := p.cfg.OnClose
	p.cfg.OnClose = nil
	p.fleet, p.closed = nil, true
	p.idle.reset()
	p.mu.Unlock()
	// Outside the lock: a hook that inspects the pool must not deadlock.
	if hook != nil {
		hook()
	}
}
