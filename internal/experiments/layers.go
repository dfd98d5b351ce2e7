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

// forkBoot forks one nginx clone (snapboot's configuration) on a fresh
// machine; its one request is the whole fork.
func forkBoot(env *Env) (closedloop.Measure, error) {
	cfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return closedloop.Measure{}, err
	}
	ctx, err := ukboot.NewContext(cfg)
	if err != nil {
		return closedloop.Measure{}, err
	}
	snap, err := ctx.Snapshot(env.NewMachine())
	if err != nil {
		return closedloop.Measure{}, err
	}
	defer snap.Close()
	m := env.NewMachine()
	vm, err := ctx.Fork(m, snap)
	if err != nil {
		return closedloop.Measure{}, err
	}
	defer vm.Close()
	return closedloop.Measure{Done: 1, Layers: m.Ledger()}, nil
}

// layers splits each workload's cycles per completed request over its
// server cores' ledgers, on the configuration of the experiment it names.
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
	file := func(row int) (closedloop.Measure, error) {
		m, err := fileRate(env, fileWorldRows[row].cfg, files, mix, worldReqs)
		return m.Measure, err
	}
	workloads := []struct {
		name    string
		measure func() (closedloop.Measure, error)
	}{
		{"nginx (fig13)", func() (closedloop.Measure, error) { return nginxRate(env, nginx, paperConns, fig13Reqs) }},
		{"redis-get (fig12)", func() (closedloop.Measure, error) { return redisRate(env, redis, false, paperConns, fig12Reqs) }},
		{"redis-set (fig12)", func() (closedloop.Measure, error) { return redisRate(env, redis, true, paperConns, fig12Reqs) }},
		{"udpkv-socket (tab4)", func() (closedloop.Measure, error) { return udpkvRate(env, 1, tab4Reqs, true) }},
		{"udpkv-raw (tab4)", func() (closedloop.Measure, error) { return udpkvRate(env, 1, tab4Reqs, false) }},
		{"fileserve-copy", func() (closedloop.Measure, error) { return file(0) }},
		{"fileserve-sendfile-zc", func() (closedloop.Measure, error) { return file(1) }},
		{"fork-boot (snapboot nginx)", func() (closedloop.Measure, error) { return forkBoot(env) }},
	}
	res := &Result{ID: "layers", Title: Title("layers"), Headers: []string{"workload", "requests"}}
	for l := sim.Layer(0); l < sim.LayerUnattributed; l++ {
		res.Headers = append(res.Headers, l.String())
	}
	res.Headers = append(res.Headers, "busy")
	for _, wl := range workloads {
		m, err := wl.measure()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		row := []string{wl.name, fmt.Sprint(m.Done)}
		var busy uint64
		for l := sim.Layer(0); l < sim.LayerUnattributed; l++ {
			row = append(row, f2(float64(m.Layers[l])/float64(m.Done)))
			if l != sim.LayerIdle {
				busy += m.Layers[l]
			}
		}
		res.Rows = append(res.Rows, append(row, f2(float64(busy)/float64(m.Done))))
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
