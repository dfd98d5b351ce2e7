package sim

import "time"

// Loop is the discrete-event scheduler contract. EventLoop, a binary
// min-heap, is its one production implementation; the interface exists
// so a caller can wrap the engine (the benchmark's tracing loop) or a
// test can swap in an independent implementation of the same contract
// (internal/sim/simtest's container/heap oracle, which shares no code
// with EventLoop). Every implementation dispatches in one total order —
// ascending (timestamp, seq) — so a program replayed on any of them
// produces an identical trace.
type Loop interface {
	// Now reports the loop's current virtual time: the timestamp of
	// the event being (or last) dispatched.
	Now() time.Duration
	// Len reports the number of pending events.
	Len() int
	// Dispatched reports the total number of events dispatched since
	// the loop was created. It is deterministic — identical across
	// implementations for the same program.
	Dispatched() uint64
	// ScheduleAt schedules h to fire at virtual time t. Times before
	// Now are clamped to Now, so a handler scheduling follow-up work
	// "immediately" cannot move time backwards. The handler must stay
	// valid (and its state untouched by the owner) until it fires; one
	// handler instance must not be scheduled twice concurrently.
	ScheduleAt(t time.Duration, h Handler)
	// ScheduleAfter schedules h to fire d after Now (negative d clamps
	// to 0).
	ScheduleAfter(d time.Duration, h Handler)
	// Peek reports the timestamp of the earliest pending event without
	// dispatching it, so a caller can run a loop only up to a time:
	// step while Peek ≤ T. A pool's fail-stop serve stops at its crash
	// instant and accounts everything still pending as lost; the
	// cluster front door runs its control events due by each arrival.
	Peek() (time.Duration, bool)
	// Step dispatches the earliest pending event, advancing Now to its
	// timestamp. It reports whether an event was dispatched.
	Step() bool
	// Run dispatches events in timestamp order until none remain,
	// including events the handlers themselves schedule.
	Run()
}

// Handler is the allocation-free event target: hot paths embed a
// reusable struct implementing Fire and pass its pointer to
// ScheduleAt/ScheduleAfter, instead of allocating a fresh closure per
// event. Storing the pointer in the queue entry's interface field does
// not allocate, so a steady-state schedule/dispatch cycle is zero
// allocations.
type Handler interface {
	Fire(now time.Duration)
}

// HandlerFunc adapts a plain function to Handler. Converting once and
// rescheduling the same Handler value keeps the hot path
// allocation-free; converting a fresh closure per schedule allocates.
type HandlerFunc func(now time.Duration)

// Fire implements Handler.
func (f HandlerFunc) Fire(now time.Duration) { f(now) }

// event is one queue entry: 32 bytes, two pointer words. Every sift
// step of the heap moves one entry, so its size is the cost of a step.
type event struct {
	at  time.Duration
	seq uint64
	h   Handler
}

// eventLess is the one total order the loop dispatches in: ascending
// timestamp, ties broken by ascending sequence number (scheduling
// order). seq is unique, so this is a strict total order and any
// correct sort of it — stable or not — is deterministic.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

var _ Loop = (*EventLoop)(nil)
