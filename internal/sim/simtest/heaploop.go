// Package simtest holds what only tests of the event engine need: its
// one type is HeapLoop, an independent implementation of sim.Loop's
// dispatch contract that the differential tests and fuzz targets of
// internal/sim (an external sim_test package, with the recording
// harness and the schedule generator in its _test.go files) and the
// pool's engine-identity test hold sim.EventLoop against.
package simtest

import (
	"container/heap"
	"time"

	"unikraft/internal/sim"
)

// HeapLoop is the reference event engine: a binary min-heap from
// container/heap, ordered by (timestamp, sequence number). It is
// O(log n) per operation and correct by construction, and it shares no
// code with sim.EventLoop: the clamp of past timestamps to Now and
// the scheduling-order tie-break are written again here, so a
// differential test compares two implementations of the contract, not
// one implementation with itself.
type HeapLoop struct {
	now        time.Duration
	seq        uint64
	dispatched uint64
	q          queue
}

// entry is one pending event.
type entry struct {
	at  time.Duration
	seq uint64
	h   sim.Handler
}

// queue implements heap.Interface over entries, earliest (at, seq)
// first.
type queue []entry

func (q queue) Len() int { return len(q) }

func (q queue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push and Pop complete heap.Interface; HeapLoop never calls them (see
// ScheduleAt).
func (q *queue) Push(x any) { *q = append(*q, x.(entry)) }

func (q *queue) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

// NewHeapLoop returns an empty heap-backed loop at virtual time zero.
func NewHeapLoop() *HeapLoop { return &HeapLoop{} }

// Now reports current virtual time.
func (l *HeapLoop) Now() time.Duration { return l.now }

// Len reports the number of pending events.
func (l *HeapLoop) Len() int { return len(l.q) }

// Dispatched reports total events dispatched.
func (l *HeapLoop) Dispatched() uint64 { return l.dispatched }

// ScheduleAt schedules h at virtual time t, clamped to Now. It and Step
// append or truncate the slice and restore order with heap.Fix instead
// of calling heap.Push and heap.Pop, which box every entry into an
// interface value (two allocations per event) and would slow the
// engine-identity serves that run on it.
func (l *HeapLoop) ScheduleAt(t time.Duration, h sim.Handler) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.q = append(l.q, entry{at: t, seq: l.seq, h: h})
	heap.Fix(&l.q, len(l.q)-1)
}

// ScheduleAfter schedules h d after Now; a negative d clamps to 0.
func (l *HeapLoop) ScheduleAfter(d time.Duration, h sim.Handler) {
	if d < 0 {
		d = 0
	}
	l.ScheduleAt(l.now+d, h)
}

// Peek reports the earliest pending timestamp without dispatching.
func (l *HeapLoop) Peek() (time.Duration, bool) {
	if len(l.q) == 0 {
		return 0, false
	}
	return l.q[0].at, true
}

// Step dispatches the earliest pending event.
func (l *HeapLoop) Step() bool {
	if len(l.q) == 0 {
		return false
	}
	e := l.q[0]
	n := len(l.q) - 1
	l.q[0], l.q[n] = l.q[n], entry{}
	l.q = l.q[:n]
	heap.Fix(&l.q, 0)
	l.now = e.at
	l.dispatched++
	e.h.Fire(e.at)
	return true
}

// Run dispatches until no events remain.
func (l *HeapLoop) Run() {
	for l.Step() {
	}
}

var _ sim.Loop = (*HeapLoop)(nil)
