package experiments

import (
	"fmt"
	"runtime"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukpool"
)

func init() {
	register("engine", "Simulation engine: hierarchical timer wheel vs binary heap on the cluster trace", engineBench)
}

// engineRequests is the headline replay size: the wheel's O(1) claim
// has to hold at the event volume the cluster experiment generates, so
// the main rows push the same ten-million-request diurnal trace
// (two events per request: arrival + completion) through both engines.
const engineRequests = clusterRequests

// engineSpeedupFloor is the least wheel-over-heap wall-clock speedup
// either scenario may show; below it the experiment fails, as cluster,
// chaos and overload fail on their own claims. It is a floor, not a
// tolerance around a committed figure: the ratio is a host measurement
// that has read 2.4x to 4.3x on the hosts this has run on, so "at least
// twice as fast" is the claim that holds on any of them, and a reading
// under it means the wheel's O(1) path regressed.
const engineSpeedupFloor = 2.0

// engineCompletion is the terminal event of each replayed request; one
// shared instance serves every request, so the steady state allocates
// nothing per event.
type engineCompletion struct{}

func (engineCompletion) Fire(time.Duration) {}

// engineArrival replays request arrivals: each dispatch schedules that
// request's completion after a deterministic pseudo-varied service
// time. The service sequence depends only on the order arrivals
// dispatch in — identical across engines by the dispatch-order
// contract — so both engines run the exact same event population.
type engineArrival struct {
	loop sim.Loop
	comp engineCompletion
	n    int
}

func (a *engineArrival) Fire(time.Duration) {
	svc := time.Duration(1+a.n*7919%997) * time.Microsecond
	a.n++
	a.loop.ScheduleAfter(svc, a.comp)
}

// engineRun is one measured replay: build the engine, bulk-load every
// arrival of the trace (the heap's worst case: the whole trace is a
// standing population), then drain. Wall-clock covers schedule +
// dispatch — the per-event cost a serve pays — and allocations are
// whole-run mallocs over events dispatched.
type engineRun struct {
	events   uint64
	wall     time.Duration
	allocsEv float64
}

// engineTrace materializes the cluster experiment's diurnal arrival
// times once; replays share it so trace generation stays out of the
// measured window and both engines schedule the identical population.
func engineTrace(n int) []time.Duration {
	total := time.Duration(n/65_000) * time.Second
	w := ukpool.NewDiurnal(41, 40_000, 90_000, total,
		total/5, total/8, 500_000, 4096, n, 256)
	arrivals := make([]time.Duration, 0, n)
	for {
		req, ok := w.Next()
		if !ok {
			return arrivals
		}
		arrivals = append(arrivals, req.Arrival)
	}
}

func measureEngine(mk func() sim.Loop, arrivals []time.Duration) engineRun {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	loop := mk()
	arr := &engineArrival{loop: loop}
	for _, at := range arrivals {
		loop.ScheduleAt(at, arr)
	}
	loop.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	ev := loop.Dispatched()
	return engineRun{
		events:   ev,
		wall:     wall,
		allocsEv: float64(m1.Mallocs-m0.Mallocs) / float64(ev),
	}
}

// measureStanding drains `events` dispatches out of `timers`
// self-rescheduling timers — the steady-state serving regime, where the
// heap pays O(log timers) per event and the wheel stays O(1).
func measureStanding(mk func() sim.Loop, timers, events int) engineRun {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	loop := mk()
	left := events
	var fire sim.Handler
	fire = sim.HandlerFunc(func(time.Duration) {
		if left > 0 {
			left--
			loop.ScheduleAfter(time.Duration(1+left%1024)*time.Microsecond, fire)
		}
	})
	for i := 0; i < timers; i++ {
		loop.ScheduleAfter(time.Duration(1+i%1024)*time.Microsecond, fire)
	}
	for i := 0; i < events; i++ {
		if !loop.Step() {
			break
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	ev := loop.Dispatched()
	return engineRun{
		events:   ev,
		wall:     wall,
		allocsEv: float64(m1.Mallocs-m0.Mallocs) / float64(ev),
	}
}

// bestOf runs a measurement three times and keeps the fastest run.
// Wall-clock noise on a shared host is one-sided — interference only
// ever adds time — so the minimum estimates true engine cost better
// than a single sample or a mean, and keeps the speedup ratio held to
// engineSpeedupFloor stable.
func bestOf(measure func() engineRun) engineRun {
	best := measure()
	for i := 0; i < 2; i++ {
		if again := measure(); again.wall < best.wall {
			best = again
		}
	}
	return best
}

// engineBench races the two event-loop engines over identical event
// populations. Engines are interchangeable by contract (the
// differential harness in internal/sim proves dispatch-order
// equality); this experiment prices the exchange. The events column is
// the deterministic check — identical across engines by construction —
// while wall, ev/s and allocs/ev are host measurements and speedup
// (heap wall / wheel wall, per scenario) is the headline, held to
// engineSpeedupFloor.
func engineBench(env *Env) (*Result, error) {
	res := &Result{
		ID: "engine", Title: Title("engine"),
		Headers: []string{"engine", "scenario", "events", "wall", "ev/s", "allocs/ev", "speedup"},
	}
	row := func(engine, scenario string, r engineRun, speedup float64) {
		res.Rows = append(res.Rows, []string{
			engine, scenario,
			fmt.Sprintf("%d", r.events),
			r.wall.Round(time.Millisecond).String(),
			mrps(float64(r.events) / r.wall.Seconds()),
			fmt.Sprintf("%.2f", r.allocsEv),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	wheel := func() sim.Loop { return sim.NewEventLoop() }
	heap := func() sim.Loop { return sim.NewHeapLoop() }

	// race adds one scenario's two rows once its claims hold: the same
	// event population on both engines, and the wheel at least
	// engineSpeedupFloor faster.
	race := func(scenario string, wheelRun, heapRun engineRun) error {
		if wheelRun.events != heapRun.events {
			return fmt.Errorf("engine: %s dispatched %d events on the wheel, %d on the heap",
				scenario, wheelRun.events, heapRun.events)
		}
		speedup := heapRun.wall.Seconds() / wheelRun.wall.Seconds()
		if speedup < engineSpeedupFloor {
			return fmt.Errorf("engine: %s ran %.2fx faster on the wheel (%v) than on the heap (%v), below the %.1fx floor",
				scenario, speedup, wheelRun.wall.Round(time.Millisecond), heapRun.wall.Round(time.Millisecond), engineSpeedupFloor)
		}
		row("wheel", scenario, wheelRun, speedup)
		row("heap", scenario, heapRun, 1)
		return nil
	}

	arrivals := engineTrace(engineRequests)
	heapRun := bestOf(func() engineRun { return measureEngine(heap, arrivals) })
	wheelRun := bestOf(func() engineRun { return measureEngine(wheel, arrivals) })
	if err := race(fmt.Sprintf("cluster-%dM-replay", engineRequests/1_000_000), wheelRun, heapRun); err != nil {
		return nil, err
	}

	const timers, events = 1 << 16, 12_000_000
	heapStand := bestOf(func() engineRun { return measureStanding(heap, timers, events) })
	wheelStand := bestOf(func() engineRun { return measureStanding(wheel, timers, events) })
	if err := race(fmt.Sprintf("standing-%dK-timers", timers/1024), wheelStand, heapStand); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("replay bulk-loads all %d arrivals (heap worst case: whole-trace standing population); each arrival schedules its completion", engineRequests),
		"dispatch order is engine-independent: the differential harness (internal/sim) replays 57 schedule shapes through both engines and requires identical traces",
	)
	return res, nil
}
