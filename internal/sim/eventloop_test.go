package sim

import (
	"testing"
	"time"
)

// countHandler is the intrusive-event pattern the serving layer uses: a
// reusable struct scheduled by pointer, rescheduling itself.
type countHandler struct {
	loop Loop
	n    int
	left int
}

func (h *countHandler) Fire(now time.Duration) {
	h.n++
	if h.left > 0 {
		h.left--
		h.loop.ScheduleAfter(time.Microsecond, h)
	}
}

// TestEventLoopSteadyStateAllocs holds Handler's promise: once the
// queue has grown to its working size, scheduling with a reused handler
// and dispatching allocate nothing. The loop keeps 64 events pending so
// every push and pop sifts through a few heap levels.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	loop := NewEventLoop()
	h := &countHandler{loop: loop}
	for i := 0; i < 64; i++ {
		loop.ScheduleAfter(time.Duration(i)*time.Microsecond, h)
	}
	step := func() {
		loop.ScheduleAt(loop.Now()+64*time.Microsecond, h)
		loop.Step()
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("ScheduleAt+Step allocated %.2f times per event, want 0", allocs)
	}
	if loop.Len() != 64 {
		t.Fatalf("Len = %d, want 64 standing events", loop.Len())
	}
}

// BenchmarkEventLoop measures the handler fast path: schedule +
// dispatch with a reused handler must not allocate per event.
func BenchmarkEventLoop(b *testing.B) {
	loop := NewEventLoop()
	h := &countHandler{loop: loop}
	// Warm the queue structures so growth is out of the measurement.
	loop.ScheduleAfter(0, h)
	loop.Run()
	b.ReportAllocs()
	b.ResetTimer()
	h.left = b.N
	loop.ScheduleAfter(0, h)
	loop.Run()
	if h.n < b.N {
		b.Fatalf("dispatched %d events, want >= %d", h.n, b.N)
	}
}
