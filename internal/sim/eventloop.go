package sim

import "time"

// EventLoop is a deterministic discrete-event scheduler over virtual
// time. It is the substrate the serving layer (internal/ukpool) runs
// on: request arrivals, service completions and autoscaler ticks are
// events on one global timeline, while each instance's work is charged
// to its own independent CPU clock. Events at the same virtual instant
// run in scheduling order (a strictly increasing sequence number breaks
// ties), so a run is reproducible event for event.
//
// The queue is one binary min-heap ordered by (at, seq). The serve
// loops schedule arrivals one at a time, so a loop holds a few dozen
// pending events at most and O(log n) per operation is a handful of
// comparisons. The differential tests replay randomized programs
// through EventLoop and through an independent binary heap
// (internal/sim/simtest's HeapLoop) and require identical traces.
//
// An EventLoop is single-goroutine: Step/Run must not be called
// concurrently, and handlers run on the caller's goroutine.
type EventLoop struct {
	// now is the virtual time of the event being (or last) dispatched;
	// seq is the last sequence number handed out, the tie-break among
	// events due at one instant; dispatched counts fired events.
	now        time.Duration
	seq        uint64
	dispatched uint64
	q          eventHeap
}

// NewEventLoop returns an empty loop at virtual time zero.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now reports current virtual time.
func (l *EventLoop) Now() time.Duration { return l.now }

// Len reports the number of pending events.
func (l *EventLoop) Len() int { return l.q.len() }

// Dispatched reports total events dispatched.
func (l *EventLoop) Dispatched() uint64 { return l.dispatched }

// ScheduleAt schedules h to fire at virtual time t. Times before Now
// are clamped to Now, so a handler scheduling follow-up work
// "immediately" cannot move time backwards. h must stay valid (and its
// state untouched by the owner) until it fires; one handler instance
// must not be scheduled twice concurrently.
func (l *EventLoop) ScheduleAt(t time.Duration, h Handler) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.q.push(event{at: t, seq: l.seq, h: h})
}

// ScheduleAfter schedules h to fire d after Now; a negative d clamps
// to 0.
func (l *EventLoop) ScheduleAfter(d time.Duration, h Handler) {
	l.ScheduleAt(l.now+max(d, 0), h)
}

// Peek reports the timestamp of the earliest pending event without
// dispatching it, so a caller can run the loop only up to a time: step
// while Peek ≤ T. A pool's fail-stop serve stops at its crash instant
// and accounts everything still pending as lost; the cluster front door
// runs its control events due by each arrival.
func (l *EventLoop) Peek() (time.Duration, bool) {
	if l.q.len() == 0 {
		return 0, false
	}
	return l.q.min().at, true
}

// Step dispatches the earliest pending event, advancing Now to its
// timestamp. It reports whether an event was dispatched.
func (l *EventLoop) Step() bool {
	if l.q.len() == 0 {
		return false
	}
	e := l.q.pop()
	l.now = e.at
	l.dispatched++
	e.h.Fire(e.at)
	return true
}

// Run dispatches events in timestamp order until none remain,
// including events the handlers themselves schedule.
func (l *EventLoop) Run() {
	for l.Step() {
	}
}
