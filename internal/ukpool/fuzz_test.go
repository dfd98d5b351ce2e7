package ukpool

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukfault"
)

// stateLoop is the default engine that remembers the serve state of
// every serve, or shard of one, it runs: the first arrival it schedules
// carries it. It also keeps its own record of which instance events are
// pending, and after every event it dispatches counts the instances on
// the pool's spare list that have one.
type stateLoop struct {
	sim.Loop
	mu      *sync.Mutex
	states  *[]*serveState
	pool    *Pool
	pending map[*instEvent]bool
	// spareBusy counts spare instances seen with a pending event.
	spareBusy *int
}

func (l *stateLoop) ScheduleAt(t time.Duration, h sim.Handler) {
	switch e := h.(type) {
	case *arrivalEvent:
		if l.pool == nil {
			l.pool = e.p
			l.mu.Lock()
			*l.states = append(*l.states, e.st)
			l.mu.Unlock()
		}
	case *instEvent:
		l.pending[e] = true
		h = &trackedEvent{e: e, l: l}
	}
	l.Loop.ScheduleAt(t, h)
}

// trackedEvent is an instance event as stateLoop schedules it.
type trackedEvent struct {
	e *instEvent
	l *stateLoop
}

func (te *trackedEvent) Fire(now time.Duration) {
	delete(te.l.pending, te.e)
	te.e.Fire(now)
	for _, inst := range te.l.pool.spare {
		if te.l.pending[&inst.ev] {
			te.l.mu.Lock()
			*te.l.spareBusy++
			te.l.mu.Unlock()
		}
	}
}

// FuzzPoolServe serves one host's pool over an input-chosen fleet
// shape, autoscaler, fault, overload and slow-window setting, fail-stop
// cutoff and shard count, and holds every serve to the pool's
// accounting: every offered request is counted once, as completed,
// failed or expired, each completion has one latency sample, no
// instance event is left pending once a serve drains, and no instance
// on the pool's spare list has one pending. Two fresh pools serve the
// input identically, and one shard is Serve.
func FuzzPoolServe(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(2), true, uint8(0), int8(0), uint16(0), uint8(0), uint16(0), uint16(0), uint8(0), uint16(0), uint8(0), uint16(500), uint16(20), uint64(1))
	f.Add(uint8(1), uint8(0), uint8(0), false, uint8(0), int8(0), uint16(0), uint8(0), uint16(0), uint16(0), uint8(0), uint16(0), uint8(1), uint16(1999), uint16(400), uint64(2))
	f.Add(uint8(4), uint8(12), uint8(4), true, uint8(255), int8(1), uint16(0), uint8(0), uint16(0), uint16(0), uint8(0), uint16(0), uint8(2), uint16(300), uint16(50), uint64(3))
	f.Add(uint8(2), uint8(0), uint8(1), false, uint8(3), int8(3), uint16(2000), uint8(8), uint16(1000), uint16(3000), uint8(2), uint16(0), uint8(1), uint16(1500), uint16(1000), uint64(4))
	f.Add(uint8(2), uint8(2), uint8(2), false, uint8(0), int8(-1), uint16(0), uint8(0), uint16(500), uint16(0), uint8(3), uint16(120), uint8(0), uint16(800), uint16(600), uint64(5))
	f.Add(uint8(16), uint8(0), uint8(16), true, uint8(20), int8(2), uint16(500), uint8(16), uint16(0), uint16(0), uint8(0), uint16(5000), uint8(2), uint16(2000), uint16(2000), uint64(6))
	f.Add(uint8(4), uint8(12), uint8(4), true, uint8(255), int8(1), uint16(0), uint8(50), uint16(0), uint16(0), uint8(0), uint16(64), uint8(2), uint16(300), uint16(50), uint64(3))
	boot := testBoot(f)
	f.Fuzz(func(t *testing.T, warm, maxInst, burst uint8, noAutoscale bool, hazard uint8, breaker int8,
		deadlineUs uint16, brownout uint8, slowFrom, slowTo uint16, slowFactor uint8,
		crashAt uint16, shards uint8, n, rate uint16, seed uint64) {
		cfg := Config{
			MinWarm:         1 + int(warm%16),
			ColdBurst:       1 + int(burst%16),
			NoAutoscale:     noAutoscale,
			Faults:          ukfault.VMFaults{Hazard: float64(hazard) / 255},
			FaultSeed:       seed,
			BreakerAfter:    int(breaker % 5),
			DefaultDeadline: time.Duration(deadlineUs) * time.Microsecond,
			BrownoutWater:   int(brownout % 32),
			// Window edges in 10us steps over a trace of up to ~0.4s.
			Slow: ukfault.SlowHost{Window: ukfault.Window{
				From: time.Duration(slowFrom) * 10 * time.Microsecond,
				To:   time.Duration(slowTo) * 10 * time.Microsecond,
			}, Factor: 1 + float64(slowFactor%8)},
		}
		cfg.MaxInstances = cfg.MinWarm + int(maxInst)%(17-cfg.MinWarm)
		count := 1 + int(n%2000)
		trace := func() Workload {
			return NewBursty(seed, 5_000, 5_000+10*float64(rate), 20*time.Millisecond, 0.3, count, 256)
		}
		opts := ServeOpts{Shards: 1 + int(shards%3), CrashAt: time.Duration(crashAt) * 10 * time.Microsecond}
		serve := func(cfg Config, o ServeOpts, entry bool) *Report {
			p := newPool(boot, nil, cfg)
			defer p.Close()
			var rep *Report
			var err error
			if entry {
				rep, err = p.Serve(trace())
			} else {
				rep, err = p.ServeWith(trace(), o)
			}
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}

		var mu sync.Mutex
		var states []*serveState
		spareBusy := 0
		traced := cfg
		traced.NewLoop = func() sim.Loop {
			return &stateLoop{Loop: sim.NewEventLoop(), mu: &mu, states: &states,
				pending: map[*instEvent]bool{}, spareBusy: &spareBusy}
		}
		rep := serve(traced, opts, false)
		if rep.Requests != count || rep.Requests != rep.Completed()+rep.Failed+rep.Expired || rep.Completed() < 0 {
			t.Errorf("%d offered: requests=%d completed=%d failed=%d expired=%d",
				count, rep.Requests, rep.Completed(), rep.Failed, rep.Expired)
		}
		if int(rep.Latency.Count) != rep.Completed() {
			t.Errorf("%d latency samples for %d completions", rep.Latency.Count, rep.Completed())
		}
		if spareBusy > 0 {
			t.Errorf("%d times an instance on the spare list had an event pending", spareBusy)
		}
		if len(states) != min(opts.Shards, count) {
			t.Errorf("%d serve states recorded for %d shards", len(states), opts.Shards)
		}
		if opts.CrashAt == 0 {
			for _, st := range states {
				if st.pending != [evKinds]int{} {
					t.Errorf("instance events still pending after the serve drained: %v", st.pending)
				}
			}
		}
		if again := serve(cfg, opts, false); !reflect.DeepEqual(rep, again) {
			t.Errorf("two fresh pools diverged:\n%v\nvs\n%v", rep, again)
		}
		if one, ref := serve(cfg, ServeOpts{Shards: 1}, false), serve(cfg, ServeOpts{}, true); !reflect.DeepEqual(one, ref) {
			t.Errorf("one shard diverged from Serve:\n%v\nvs\n%v", one, ref)
		}
	})
}
