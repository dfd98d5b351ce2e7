package ukpool

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
)

// configDiff names the fields where got and want differ; func fields
// compare by identity.
func configDiff(got, want Config) []string {
	var diff []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		gf, wf := g.Field(i), w.Field(i)
		same := reflect.DeepEqual(gf.Interface(), wf.Interface())
		if gf.Kind() == reflect.Func {
			same = gf.Pointer() == wf.Pointer()
		}
		if !same {
			diff = append(diff, g.Type().Field(i).Name)
		}
	}
	return diff
}

// TestConfigZeroValue is the zero-value contract: New fills every
// documented default into a zero field, clamps what is out of range,
// and keeps every explicit value — including the negative spellings
// that disable the SLO override and the breaker.
func TestConfigZeroValue(t *testing.T) {
	defaults := Config{
		MinWarm: 8, MaxInstances: 1024, ColdBurst: 32,
		SyscallsPerRequest: 4, AppCycles: 12_000,
		ScaleWindow: 50 * time.Millisecond, TargetP99: 2 * time.Millisecond,
		KickBatch: 1, BreakerAfter: 3,
	}
	explicit := Config{
		MinWarm: 3, MaxInstances: 7, ColdBurst: 5,
		SyscallsPerRequest: 9, AppCycles: 170_000,
		ScaleWindow: 10 * time.Millisecond, TargetP99: time.Millisecond,
		NoAutoscale: true, ZeroCopy: true, KickBatch: 16,
		RequestWork: func(*ukboot.VM, int) {},
		Faults:      ukfault.VMFaults{Hazard: 0.01}, FaultSeed: 42,
		BreakerAfter: 5, SeriesWindow: 100 * time.Millisecond,
		DefaultDeadline: 5 * time.Millisecond, BrownoutWater: 16,
		Slow:    ukfault.SlowHost{Window: ukfault.Window{From: time.Millisecond, To: 2 * time.Millisecond}, Factor: 2},
		NewLoop: func() sim.Loop { return sim.NewEventLoop() },
	}
	// Every field is set, so a field added without a default here fails.
	for i, v := 0, reflect.ValueOf(explicit); i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("explicit case leaves %s at its zero value", v.Type().Field(i).Name)
		}
	}
	with := func(edit func(*Config)) Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, defaults},
		{"explicit", explicit, explicit},
		{"disabled", Config{TargetP99: -1, BreakerAfter: -1},
			with(func(c *Config) { c.TargetP99, c.BreakerAfter = -1, -1 })},
		{"clamped", Config{MinWarm: -3, MaxInstances: -1, ColdBurst: -2, ScaleWindow: -time.Second, KickBatch: -4},
			with(func(c *Config) { c.MinWarm, c.MaxInstances, c.ColdBurst = 1, 1, 1 })},
		{"cap-below-floor", Config{MinWarm: 16, MaxInstances: 4},
			with(func(c *Config) { c.MinWarm, c.MaxInstances = 16, 16 })},
		{"floor-above-default-cap", Config{MinWarm: 2048},
			with(func(c *Config) { c.MinWarm, c.MaxInstances = 2048, 2048 })},
	} {
		if diff := configDiff(newPool(nil, nil, tc.in).cfg, tc.want); len(diff) > 0 {
			t.Errorf("%s: a pool of %+v differs from the contract in %v", tc.name, tc.in, diff)
		}
	}
}
