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
