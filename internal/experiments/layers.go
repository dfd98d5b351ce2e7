package experiments

import (
	"fmt"

	"unikraft/internal/closedloop"
	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

func init() {
	register("layers", "Cycles per completed request by layer (the machine ledger)", layers)
}

// window is one measured run on a server core: the requests it
// completed and the cycles the core spent per layer meanwhile. The rate
// functions fill one when handed a non-nil pointer.
type window struct {
	done   int
	layers [sim.NumLayers]uint64
}

// open starts the window on m's ledger; a nil window ignores it.
func (w *window) open(m *sim.Machine) {
	if w != nil {
		w.layers = m.Ledger()
	}
}

// close ends the window on m after done completed requests.
func (w *window) close(m *sim.Machine, done int) {
	if w == nil {
		return
	}
	now := m.Ledger()
	for l := range now {
		w.layers[l] = now[l] - w.layers[l]
	}
	w.done = done
}

// counted counts the requests a generator completes.
type counted struct {
	closedloop.Generator
	done int
}

func (c *counted) Collect() int {
	n := c.Generator.Collect()
	c.done += n
	return n
}

// run is w.Run that also fills win, if non-nil, on core 0.
func run(w *closedloop.World, gen closedloop.Generator, depth, reqs int, win *window) (float64, error) {
	c, m := &counted{Generator: gen}, w.Shards[0].Machine()
	win.open(m)
	rate, err := w.Run(c, depth, reqs)
	win.close(m, c.done)
	return rate, err
}

// errOf drops a measurement's value and keeps its error.
func errOf[T any](_ T, err error) error { return err }

// forkBoot forks one nginx clone (snapboot's configuration) on a fresh
// machine; its window is the whole fork.
func forkBoot(env *Env, win *window) error {
	cfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return err
	}
	ctx, err := ukboot.NewContext(cfg)
	if err != nil {
		return err
	}
	snap, err := ctx.Snapshot(env.NewMachine())
	if err != nil {
		return err
	}
	defer snap.Close()
	m := env.NewMachine()
	win.open(m)
	vm, err := ctx.Fork(m, snap)
	win.close(m, 1)
	if err == nil {
		vm.Close()
	}
	return err
}

// layers splits each workload's cycles per completed request over its
// server core's ledger, on the configuration of the experiment it names.
// busy, every layer but idle, is Hz over that experiment's rate. It fails
// if a machine it used has a ledger that does not sum to its clock, or
// has cycles on no row or layer.
func layers(env *Env) (*Result, error) {
	var used []*sim.Machine
	newMachine := env.NewMachine
	env = &Env{Catalog: env.Catalog, NewMachine: func() *sim.Machine {
		m := newMachine()
		used = append(used, m)
		return m
	}}
	files, mix := fileSite()
	nginx, redis := oneCore(closedloop.Config{}, "tlsf"), oneCore(closedloop.Config{}, "mimalloc")
	workloads := []struct {
		name    string
		measure func(*window) error
	}{
		{"nginx (fig13)", func(w *window) error { return errOf(nginxRate(env, nginx, paperConns, fig13Reqs, w)) }},
		{"redis-get (fig12)", func(w *window) error { return errOf(redisRate(env, redis, false, paperConns, fig12Reqs, w)) }},
		{"redis-set (fig12)", func(w *window) error { return errOf(redisRate(env, redis, true, paperConns, fig12Reqs, w)) }},
		{"udpkv-socket (tab4)", func(w *window) error { return errOf(udpkvSocketRate(env, tab4Reqs, w)) }},
		{"udpkv-raw (tab4)", func(w *window) error { return errOf(udpkvRate(env, 1, tab4Reqs, w)) }},
		{"fileserve-copy", func(w *window) error { return errOf(fileRate(env, fileWorldRows[0].cfg, files, mix, worldReqs, w)) }},
		{"fileserve-sendfile-zc", func(w *window) error { return errOf(fileRate(env, fileWorldRows[1].cfg, files, mix, worldReqs, w)) }},
		{"fork-boot (snapboot nginx)", func(w *window) error { return forkBoot(env, w) }},
	}
	res := &Result{ID: "layers", Title: Title("layers"), Headers: []string{"workload", "requests"}}
	for l := sim.Layer(0); l < sim.LayerUnattributed; l++ {
		res.Headers = append(res.Headers, l.String())
	}
	res.Headers = append(res.Headers, "busy")
	for _, wl := range workloads {
		var w window
		if err := wl.measure(&w); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		row := []string{wl.name, fmt.Sprint(w.done)}
		var busy uint64
		for l := sim.Layer(0); l < sim.LayerUnattributed; l++ {
			row = append(row, f2(float64(w.layers[l])/float64(w.done)))
			if l != sim.LayerIdle {
				busy += w.layers[l]
			}
		}
		res.Rows = append(res.Rows, append(row, f2(float64(busy)/float64(w.done))))
	}
	for i, m := range used {
		var sum uint64
		for _, c := range m.Ledger() {
			sum += c
		}
		if sum != m.CPU.Cycles() || m.Ledger()[sim.LayerUnattributed] != 0 {
			return nil, fmt.Errorf("machine %d: ledger %v sums to %d of %d cycles", i, m.Ledger(), sum, m.CPU.Cycles())
		}
	}
	return res, nil
}
