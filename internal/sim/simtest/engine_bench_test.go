package simtest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"unikraft/internal/sim"
)

// engineSpeedupFloor is the least wheel-over-heap wall-clock speedup
// either scenario of BenchmarkEngine may show; below it the benchmark
// fails. It is a floor, not a tolerance around a committed figure: the
// ratio is a host measurement, so "at least twice as fast" is the claim
// that holds on any host, and a reading under it means the wheel's O(1)
// path regressed.
const engineSpeedupFloor = 2.0

const (
	// replayRequests arrivals, at replayRate per virtual second, are
	// bulk-loaded and then drained; each arrival schedules its
	// completion, so the replay dispatches twice as many events.
	replayRequests = 1_000_000
	replayRate     = 65_000
	// standingTimers self-rescheduling timers stay pending while
	// standingEvents dispatches run: the steady serving regime, where
	// the heap pays O(log standingTimers) per event.
	standingTimers = 1 << 16
	standingEvents = 2_000_000
)

// replayTrace draws n Poisson arrival times at replayRate. It runs once,
// outside the timed region, so both engines schedule the identical
// population.
func replayTrace(n int) []time.Duration {
	rng := sim.NewRand(41)
	arrivals := make([]time.Duration, n)
	var at time.Duration
	for i := range arrivals {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / replayRate)
		arrivals[i] = at
	}
	return arrivals
}

// replayArrival schedules each request's completion after a
// deterministic pseudo-varied service time. The service sequence
// depends only on the order arrivals dispatch in — identical across
// engines by the dispatch-order contract — so both engines run the
// exact same event population.
type replayArrival struct {
	loop sim.Loop
	done sim.Handler
	n    int
}

func (a *replayArrival) Fire(time.Duration) {
	svc := time.Duration(1+a.n*7919%997) * time.Microsecond
	a.n++
	a.loop.ScheduleAfter(svc, a.done)
}

// replay bulk-loads every arrival (the whole trace is one standing
// population, the heap's worst case) and drains the loop.
func replay(l sim.Loop, arrivals []time.Duration) {
	arr := &replayArrival{loop: l, done: sim.HandlerFunc(func(time.Duration) {})}
	for _, at := range arrivals {
		l.ScheduleAt(at, arr)
	}
	l.Run()
}

// standing runs standingEvents dispatches out of standingTimers
// self-rescheduling timers.
func standing(l sim.Loop) {
	left := standingEvents
	var fire sim.Handler
	fire = sim.HandlerFunc(func(time.Duration) {
		if left > 0 {
			left--
			l.ScheduleAfter(time.Duration(1+left%1024)*time.Microsecond, fire)
		}
	})
	for i := 0; i < standingTimers; i++ {
		l.ScheduleAfter(time.Duration(1+i%1024)*time.Microsecond, fire)
	}
	for i := 0; i < standingEvents && l.Step(); i++ {
	}
}

// bestOf runs a scenario on a fresh engine three times and keeps the
// fastest wall time. Wall-clock noise on a shared host is one-sided —
// interference only ever adds time — so the minimum estimates the true
// engine cost better than one sample or a mean, and keeps the ratio
// held to engineSpeedupFloor stable.
func bestOf(mk func() sim.Loop, run func(sim.Loop)) (best time.Duration, events uint64) {
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		l := mk()
		run(l)
		if wall := time.Since(start); i == 0 || wall < best {
			best = wall
		}
		events = l.Dispatched()
	}
	return best, events
}

// BenchmarkEngine races the timer wheel against the heap oracle over
// identical event populations in two scenarios, and fails if the wheel
// is not engineSpeedupFloor times faster in both. The dispatched-event
// count is the deterministic check (identical across engines by
// construction); the per-event wall times and their ratio are host
// measurements.
func BenchmarkEngine(b *testing.B) {
	arrivals := replayTrace(replayRequests)
	for _, sc := range []struct {
		name string
		run  func(sim.Loop)
	}{
		{fmt.Sprintf("replay-%dK", replayRequests/1000), func(l sim.Loop) { replay(l, arrivals) }},
		{fmt.Sprintf("standing-%dK-timers", standingTimers/1024), standing},
	} {
		b.Run(sc.name, func(b *testing.B) {
			var wheel, heap time.Duration
			var events uint64
			for i := 0; i < b.N; i++ {
				var heapEvents uint64
				heap, heapEvents = bestOf(func() sim.Loop { return NewHeapLoop() }, sc.run)
				wheel, events = bestOf(func() sim.Loop { return sim.NewEventLoop() }, sc.run)
				if events != heapEvents {
					b.Fatalf("dispatched %d events on the wheel, %d on the heap", events, heapEvents)
				}
			}
			speedup := heap.Seconds() / wheel.Seconds()
			b.ReportMetric(float64(wheel.Nanoseconds())/float64(events), "wheel-ns/ev")
			b.ReportMetric(float64(heap.Nanoseconds())/float64(events), "heap-ns/ev")
			b.ReportMetric(speedup, "wheel-vs-heap-x")
			if speedup < engineSpeedupFloor {
				b.Fatalf("%d events ran %.2fx faster on the wheel (%v) than on the heap (%v), below the %.1fx floor",
					events, speedup, wheel.Round(time.Millisecond), heap.Round(time.Millisecond), engineSpeedupFloor)
			}
		})
	}
}
