package sim_test

import (
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/sim/simtest"
)

// engines returns a fresh instance of each event-loop engine, keyed by
// name, for tests that must hold on both. "wheel" is sim.EventLoop; the
// key keeps the subtest names the suite has always reported.
func engines() map[string]sim.Loop {
	return map[string]sim.Loop{"wheel": sim.NewEventLoop(), "heap": simtest.NewHeapLoop()}
}

// TestWheelMatchesHeapAcrossShapes is the differential harness: every
// schedule shape, under multiple seeds, replayed through the heap
// oracle and sim.EventLoop must produce identical (timestamp, label)
// dispatch traces, and each trace must independently satisfy the
// scheduling invariants.
func TestWheelMatchesHeapAcrossShapes(t *testing.T) {
	shapes := DiffShapes()
	if len(shapes) < 50 {
		t.Fatalf("shape table has %d entries, the harness promises >= 50", len(shapes))
	}
	for _, s := range shapes {
		t.Run(s.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				wheel := NewRecordingLoop(sim.NewEventLoop())
				wpb := PlaySchedule(wheel, seed, s)
				wheel.Run()
				heap := NewRecordingLoop(simtest.NewHeapLoop())
				hpb := PlaySchedule(heap, seed, s)
				heap.Run()
				if err := VerifyTrace(wheel.Trace, wpb); err != nil {
					t.Fatalf("seed %d: wheel invariants: %v", seed, err)
				}
				if err := VerifyTrace(heap.Trace, hpb); err != nil {
					t.Fatalf("seed %d: heap invariants: %v", seed, err)
				}
				if err := DiffTraces(heap.Trace, wheel.Trace); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if w, h := wheel.Dispatched(), heap.Dispatched(); w != h {
					t.Fatalf("seed %d: dispatched counts differ: wheel %d, heap %d", seed, w, h)
				}
			}
		})
	}
}

// TestScheduleClampUnified: both public schedule methods, on both
// engines, clamp past targets (including negative ScheduleAfter delays)
// to Now instead of moving time backwards, and preserve admission order
// among the clamped.
func TestScheduleClampUnified(t *testing.T) {
	for name, l := range engines() {
		t.Run(name, func(t *testing.T) {
			var order []int
			mark := func(id int, want time.Duration) sim.Handler {
				return sim.HandlerFunc(func(now time.Duration) {
					if now != want {
						t.Errorf("event %d fired at %v, want %v", id, now, want)
					}
					order = append(order, id)
				})
			}
			l.ScheduleAt(10*time.Millisecond, sim.HandlerFunc(func(now time.Duration) {
				// From inside a handler at t=10ms, every past target
				// must fire at exactly 10ms, in scheduling order.
				l.ScheduleAfter(-5*time.Millisecond, mark(0, now))
				l.ScheduleAt(now-time.Second, mark(1, now))
				l.ScheduleAfter(-1, mark(2, now))
				l.ScheduleAt(-42, mark(3, now))
				l.ScheduleAfter(0, mark(4, now))
			}))
			l.Run()
			if l.Now() != 10*time.Millisecond {
				t.Errorf("Now = %v after clamped events, want 10ms", l.Now())
			}
			for i, id := range order {
				if i != id {
					t.Fatalf("clamped dispatch order = %v, want identity", order)
				}
			}
			if len(order) != 5 {
				t.Fatalf("dispatched %d clamped events, want 5", len(order))
			}
		})
	}
}

// TestPeekAfterLateEarlierEvent: Peek reports without consuming, so an
// event scheduled *after* a peek but *before* the peeked timestamp must
// still dispatch first.
func TestPeekAfterLateEarlierEvent(t *testing.T) {
	for name, l := range engines() {
		t.Run(name, func(t *testing.T) {
			var order []int
			l.ScheduleAt(time.Millisecond, sim.HandlerFunc(func(time.Duration) { order = append(order, 1) }))
			if at, ok := l.Peek(); !ok || at != time.Millisecond {
				t.Fatalf("Peek = %v, %v; want 1ms, true", at, ok)
			}
			l.ScheduleAt(500*time.Microsecond, sim.HandlerFunc(func(time.Duration) { order = append(order, 0) }))
			if at, ok := l.Peek(); !ok || at != 500*time.Microsecond {
				t.Fatalf("Peek after earlier insert = %v, %v; want 500µs, true", at, ok)
			}
			l.Run()
			if len(order) != 2 || order[0] != 0 || order[1] != 1 {
				t.Fatalf("dispatch order = %v, want [0 1]", order)
			}
			if _, ok := l.Peek(); ok {
				t.Error("Peek reported an event on a drained loop")
			}
		})
	}
}

// TestFarOverflowAndLapWrap pins dispatch order across days of virtual
// time: events multiples of farHorizon apart, one scheduled from a
// handler fired at 3/4 of that span, interleaved with near ones.
func TestFarOverflowAndLapWrap(t *testing.T) {
	wheel := NewRecordingLoop(sim.NewEventLoop())
	heap := NewRecordingLoop(simtest.NewHeapLoop())
	program := func(r *RecordingLoop) {
		r.Record(2*farHorizon, 0, nil)
		r.Record(farHorizon*3/4, 1, func(now time.Duration) {
			// From t=3/4 span, +1/2 span lands before label 0.
			r.Record(now+farHorizon/2, 2, nil)
			r.Record(now+time.Microsecond, 3, nil)
		})
		r.Record(time.Millisecond, 4, nil)
		r.Run()
	}
	program(wheel)
	program(heap)
	if err := DiffTraces(heap.Trace, wheel.Trace); err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 1, 3, 2, 0}
	for i, rec := range wheel.Trace {
		if rec.Label != want[i] {
			t.Fatalf("dispatch labels = %v, want %v", wheel.Trace, want)
		}
	}
}

// TestLenTracksPending: Len counts scheduled-but-undispatched events on
// both engines, through scheduling, peeking and dispatching.
func TestLenTracksPending(t *testing.T) {
	for name, l := range engines() {
		t.Run(name, func(t *testing.T) {
			nop := sim.HandlerFunc(func(time.Duration) {})
			for i := 1; i <= 10; i++ {
				l.ScheduleAfter(time.Duration(i)*time.Minute, nop)
				if l.Len() != i {
					t.Fatalf("Len = %d after %d schedules", l.Len(), i)
				}
			}
			l.Peek()
			if l.Len() != 10 {
				t.Fatalf("Len = %d after Peek, want 10", l.Len())
			}
			for i := 9; l.Step(); i-- {
				if l.Len() != i {
					t.Fatalf("Len = %d, want %d", l.Len(), i)
				}
			}
			if l.Len() != 0 || l.Dispatched() != 10 {
				t.Fatalf("Len = %d, Dispatched = %d after drain", l.Len(), l.Dispatched())
			}
		})
	}
}
