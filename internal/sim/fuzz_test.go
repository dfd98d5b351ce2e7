package sim_test

import (
	"encoding/binary"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/sim/simtest"
)

// fuzzShape decodes a fuzz input into a (seed, shape) pair. The bytes
// map structurally: mutating the horizon byte spreads the program from
// microseconds to days of virtual time, the burst byte grows
// same-instant storms, the chain bytes deepen reschedule-from-callback
// trees, and the past byte raises the clamp rate.
func fuzzShape(data []byte) (uint64, ScheduleShape) {
	var b [16]byte
	copy(b[:], data)
	return binary.LittleEndian.Uint64(b[:8]), ScheduleShape{
		Name:    "fuzz",
		Initial: 1 + int(b[9]%32),
		Burst:   int(b[10] % 32),
		Horizon: time.Duration(1) << (b[8] % 44),
		Chain:   int(b[11] % 3),
		Depth:   int(b[12] % 3),
		Past:    float64(b[13]%4) / 4,
		Far:     b[14]&1 == 1,
	}
}

// fuzzSeeds covers horizons of 2µs, 2ms, 2s and 37 minutes, far-future
// follow-ups, same-instant storms and clamp-heavy chains; the
// checked-in corpus under testdata/fuzz mirrors them.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 11, 8, 0, 1, 2, 0, 0, 0})  // 2µs
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 21, 8, 7, 1, 2, 1, 0, 0})  // 2ms
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 31, 8, 0, 2, 1, 0, 0, 0})  // 2s
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 41, 4, 31, 1, 1, 2, 0, 0}) // 37min storms
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 43, 8, 3, 2, 2, 3, 1, 0})  // far + clamps
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 31, 1, 1, 0, 0, 0})  // one-instant storm
}

// FuzzWheelVsHeap replays a fuzz-decoded schedule through sim.EventLoop
// and the heap oracle and requires identical dispatch traces plus the
// per-engine invariants (exact fire times after clamping, FIFO within
// an instant, monotone time).
func FuzzWheelVsHeap(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, shape := fuzzShape(data)
		wheel := NewRecordingLoop(sim.NewEventLoop())
		wpb := PlaySchedule(wheel, seed, shape)
		wheel.Run()
		heap := NewRecordingLoop(simtest.NewHeapLoop())
		hpb := PlaySchedule(heap, seed, shape)
		heap.Run()
		if err := VerifyTrace(wheel.Trace, wpb); err != nil {
			t.Fatalf("wheel invariants: %v", err)
		}
		if err := VerifyTrace(heap.Trace, hpb); err != nil {
			t.Fatalf("heap invariants: %v", err)
		}
		if err := DiffTraces(heap.Trace, wheel.Trace); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzWheelInvariants exercises sim.EventLoop alone (more iterations per
// second than the differential target) against the trace invariants:
// no event before its timestamp, a schedule before Now clamps to an exact
// fire-at-Now, FIFO within an instant, time never moves backwards.
func FuzzWheelInvariants(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, shape := fuzzShape(data)
		wheel := NewRecordingLoop(sim.NewEventLoop())
		pb := PlaySchedule(wheel, seed, shape)
		wheel.Run()
		if err := VerifyTrace(wheel.Trace, pb); err != nil {
			t.Fatal(err)
		}
		if wheel.Len() != 0 {
			t.Fatalf("loop reports %d pending after Run", wheel.Len())
		}
	})
}
