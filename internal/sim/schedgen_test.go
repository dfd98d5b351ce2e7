package sim_test

import (
	"fmt"
	"time"

	"unikraft/internal/sim"
)

// farHorizon (2^49 ns, about 6.5 virtual days) is how far ahead a Far
// follow-up aims. Changing it changes every generated schedule that
// sets Far, so it holds the value the shapes and the checked-in fuzz
// corpus were drawn with.
const farHorizon = time.Duration(1) << 49

// DispatchRecord is one entry of a RecordingLoop's trace: the virtual
// time an event fired at and the label it was scheduled with.
type DispatchRecord struct {
	At    time.Duration
	Label int64
}

// RecordingLoop wraps any sim.Loop and appends a (timestamp, label)
// record for every labelled event it dispatches. The differential
// tests replay the same labelled program through the oracle-backed and
// the EventLoop-backed RecordingLoop and assert the traces are identical —
// equal labels in equal order at equal times means the engines agree on
// the full (at, seq) dispatch order.
type RecordingLoop struct {
	sim.Loop
	// Trace accumulates dispatch records in dispatch order.
	Trace []DispatchRecord
}

// NewRecordingLoop wraps l.
func NewRecordingLoop(l sim.Loop) *RecordingLoop { return &RecordingLoop{Loop: l} }

// record returns the handler for a labelled event: it appends
// (fire-time, label) to Trace and then runs fn, if non-nil, so programs
// can schedule labelled follow-ups from inside handlers.
func (r *RecordingLoop) record(label int64, fn func(now time.Duration)) sim.Handler {
	return sim.HandlerFunc(func(now time.Duration) {
		r.Trace = append(r.Trace, DispatchRecord{At: now, Label: label})
		if fn != nil {
			fn(now)
		}
	})
}

// Record schedules a labelled event at t.
func (r *RecordingLoop) Record(t time.Duration, label int64, fn func(now time.Duration)) {
	r.ScheduleAt(t, r.record(label, fn))
}

// RecordAfter is Record with a delay relative to Now.
func (r *RecordingLoop) RecordAfter(d time.Duration, label int64, fn func(now time.Duration)) {
	r.ScheduleAfter(d, r.record(label, fn))
}

// ScheduleShape parameterises one randomized schedule for the
// differential harness: a labelled program that is replayed, with the
// same seed, through the oracle-backed and the EventLoop-backed
// RecordingLoop. Same-instant storms pile many equal timestamps into
// the queue, Horizon sets how far apart events spread, Past forces
// clamp-to-now, Far sends follow-ups days ahead, and Chain/Depth
// reschedule from inside callbacks.
type ScheduleShape struct {
	Name string
	// Initial independent events are scheduled up front, each at a
	// random time in [0, Horizon].
	Initial int
	// Burst extra copies of every initial event are scheduled at the
	// exact same instant (a same-instant storm).
	Burst int
	// Horizon bounds every random delay in the program.
	Horizon time.Duration
	// Chain follow-up events are scheduled from each event's own
	// callback, for Depth generations.
	Chain, Depth int
	// Past is the probability that a follow-up targets now-δ and must
	// be clamped to now.
	Past float64
	// Far redirects every 7th follow-up more than farHorizon ahead.
	Far bool
}

// SchedulePlayback accumulates the ground truth for a schedule as it
// unfolds: Want[label] is the exact virtual time the event with that
// label must fire at (the requested time, after clamping). Labels are
// issued in admission order, so within one instant they must fire in
// strictly increasing label order.
type SchedulePlayback struct {
	Want []time.Duration
}

func (pb *SchedulePlayback) expect(at time.Duration) int64 {
	pb.Want = append(pb.Want, at)
	return int64(len(pb.Want) - 1)
}

// PlaySchedule installs the shape's initial events on r and returns
// the playback that fills in as r.Run() unfolds the program. The
// program is fully determined by (seed, shape) given the loop's
// dispatch order — replaying it on two engines that agree on the order
// consumes identical random draws and produces identical traces.
func PlaySchedule(r *RecordingLoop, seed uint64, s ScheduleShape) *SchedulePlayback {
	pb := &SchedulePlayback{}
	rng := sim.NewRand(seed)
	delay := func() time.Duration {
		if s.Horizon <= 0 {
			return 0
		}
		return time.Duration(rng.Intn(int(s.Horizon) + 1))
	}
	var fire func(depth int) func(now time.Duration)
	fire = func(depth int) func(now time.Duration) {
		if depth <= 0 || s.Chain <= 0 {
			return nil
		}
		return func(now time.Duration) {
			for c := 0; c < s.Chain; c++ {
				d := delay()
				switch {
				case s.Past > 0 && rng.Float64() < s.Past:
					// Requested in the past: must clamp to now.
					r.Record(now-d, pb.expect(now), fire(depth-1))
				case s.Far && len(pb.Want)%7 == 0:
					at := now + d + farHorizon + time.Minute
					r.Record(at, pb.expect(at), fire(depth-1))
				default:
					r.RecordAfter(d, pb.expect(now+d), fire(depth-1))
				}
			}
		}
	}
	for i := 0; i < s.Initial; i++ {
		at := delay()
		for j := 0; j <= s.Burst; j++ {
			r.Record(at, pb.expect(at), fire(s.Depth))
		}
	}
	return pb
}

// VerifyTrace checks a finished trace against its playback: every
// labelled event fired exactly once, exactly at its (clamped) requested
// time, never before an earlier timestamp, and in admission (label)
// order within each instant — the FIFO-within-an-instant and
// no-early-dispatch invariants of both engines.
func VerifyTrace(trace []DispatchRecord, pb *SchedulePlayback) error {
	if len(trace) != len(pb.Want) {
		return fmt.Errorf("dispatched %d events, scheduled %d", len(trace), len(pb.Want))
	}
	seen := make([]bool, len(pb.Want))
	for i, rec := range trace {
		if rec.Label < 0 || rec.Label >= int64(len(pb.Want)) {
			return fmt.Errorf("trace[%d]: unknown label %d", i, rec.Label)
		}
		if seen[rec.Label] {
			return fmt.Errorf("trace[%d]: label %d dispatched twice", i, rec.Label)
		}
		seen[rec.Label] = true
		if want := pb.Want[rec.Label]; rec.At != want {
			return fmt.Errorf("trace[%d]: label %d fired at %v, want exactly %v", i, rec.Label, rec.At, want)
		}
		if i > 0 {
			prev := trace[i-1]
			if rec.At < prev.At {
				return fmt.Errorf("trace[%d]: time moved backwards (%v after %v)", i, rec.At, prev.At)
			}
			if rec.At == prev.At && rec.Label <= prev.Label {
				return fmt.Errorf("trace[%d]: FIFO violated at %v (label %d after %d)", i, rec.At, rec.Label, prev.Label)
			}
		}
	}
	return nil
}

// DiffTraces compares two engines' traces for the same program and
// returns the first divergence, or nil if they are identical.
func DiffTraces(a, b []DispatchRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("traces diverge at event %d: (%v, %d) vs (%v, %d)",
				i, a[i].At, a[i].Label, b[i].At, b[i].Label)
		}
	}
	return nil
}

// DiffShapes is the harness's schedule-shape table: a grid over
// horizons from microseconds to hours, same-instant storm sizes and
// reschedule-from-callback chains, plus handcrafted edge shapes. Every
// shape is replayed through both engines by the differential tests.
// The horizon names are kept as subtest names.
func DiffShapes() []ScheduleShape {
	horizons := []struct {
		name string
		d    time.Duration
		far  bool
	}{
		{"sub-tick", 2 * time.Microsecond, false},
		{"level0", 200 * time.Microsecond, false},
		{"level1", 30 * time.Millisecond, false},
		{"level2", 5 * time.Second, false},
		{"deep", 40 * time.Minute, false},
		{"overflow", 3 * time.Hour, true}, // plus Far follow-ups
	}
	chains := []struct {
		name         string
		chain, depth int
	}{
		{"flat", 0, 0},
		{"chain1x3", 1, 3},
		{"chain3x2", 3, 2},
	}
	var shapes []ScheduleShape
	for _, h := range horizons {
		for _, burst := range []int{0, 7, 63} {
			for _, c := range chains {
				shapes = append(shapes, ScheduleShape{
					Name:    fmt.Sprintf("%s/burst%d/%s", h.name, burst, c.name),
					Initial: 40, Burst: burst, Horizon: h.d,
					Chain: c.chain, Depth: c.depth,
					Past: 0.2, Far: h.far,
				})
			}
		}
	}
	return append(shapes,
		// Everything at one instant: a pure same-instant storm.
		ScheduleShape{Name: "storm/one-instant", Initial: 1, Burst: 511, Horizon: 0, Chain: 1, Depth: 1},
		// Every follow-up targets the past: clamp-to-now chains.
		ScheduleShape{Name: "clamp/all-past", Initial: 32, Burst: 3, Horizon: time.Millisecond, Chain: 2, Depth: 3, Past: 1},
		// Mostly far-future: Far follow-ups dominate the program.
		ScheduleShape{Name: "overflow/heavy", Initial: 64, Horizon: 10 * time.Hour, Chain: 1, Depth: 2, Far: true},
	)
}
