package sim

import (
	"math/bits"
	"slices"
	"time"
)

// EventLoop is a deterministic discrete-event scheduler over virtual
// time. It is the substrate the serving layer (internal/ukpool) runs
// on: request arrivals, service completions and autoscaler ticks are
// events on one global timeline, while each instance's work is charged
// to its own independent CPU clock. Events at the same virtual instant
// run in scheduling order (a strictly increasing sequence number breaks
// ties), so a run is reproducible event for event.
//
// Internally EventLoop is a hierarchical timer wheel, sized for
// 100M-event traces where the old binary heap's O(log n) per operation
// and cache-hostile sift paths were the harness ceiling:
//
//   - wheelLevels levels of wheelSlots slots each; a level-0 slot is
//     one tick (1<<wheelTickBits ns ≈ 66µs) wide, each level above is
//     wheelSlots× coarser, so the wheel spans ~6.5 virtual days
//     ahead of the cursor. Schedule is O(1): index a slot, append.
//   - per-level occupancy bitmaps let the cursor jump straight to the
//     next non-empty slot (bits.TrailingZeros64), so idle gaps cost
//     O(1) instead of O(gap).
//   - higher-level slots cascade into finer levels as the cursor
//     reaches them; each event is moved at most wheelLevels times, so
//     dispatch is amortised O(1).
//   - events beyond the wheel horizon overflow into a min-heap and are
//     drained back into the wheel as the cursor approaches them.
//   - a level-0 slot is dispatched as one batch: sorted once by
//     (at, seq), then drained in place with no per-event re-heapify.
//     Same-instant storms are a linear scan of one sorted slice.
//
// Dispatch order is ascending (at, seq), exactly what a plain binary
// heap would give: the differential tests replay randomized programs
// through the wheel and through an independent binary heap
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
	pending    int

	// tick is the wheel cursor, in ticks (at >> wheelTickBits). It
	// only moves forward, and only to positions at or before the next
	// pending event; Now trails it, moving on dispatch.
	tick   int64
	levels [wheelLevels]wheelLevel

	// cur is the level-0 slot currently being dispatched, sorted by
	// (at, seq); curIdx the next entry to fire. spill holds events
	// admitted at or before the cursor's tick (same-instant follow-up
	// work, clamped past timestamps), interleaved with cur by (at,
	// seq) comparison at dispatch. far is the overflow queue for
	// events beyond the wheel horizon.
	cur    []event
	curIdx int
	spill  eventHeap
	far    eventHeap

	// free recycles drained slot buffers so steady-state scheduling
	// does not allocate.
	free [][]event
}

const (
	// wheelTickBits sets the level-0 batching granularity: 1<<16 ns ≈
	// 66µs. Resolution does not bound precision — dispatch order is
	// always exact (at, seq), with same-tick events interleaved through
	// the spill heap — it only sets how many events share a slot batch.
	// A coarse tick keeps trace-scale populations one cascade from
	// dispatch and amortises each cursor jump over a whole batch instead
	// of paying a bitmap scan per event.
	wheelTickBits = 16
	// wheelLevelBits gives wheelSlots = 2048 slots per level. Wide flat
	// levels beat narrow deep ones here: every extra level is one more
	// cascade copy per event, and with 11-bit levels a trace-scale
	// population (minutes of virtual time) is at most two cascades from
	// dispatch instead of three.
	wheelLevelBits = 11
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 3
	// wheelHorizonTicks is the wheel's span: events further ahead of
	// the cursor than this overflow into the far heap. 1<<33 ticks ×
	// 66µs ≈ 6.5 virtual days.
	wheelHorizonTicks = int64(1) << (wheelLevels * wheelLevelBits)
)

// WheelHorizon is how far ahead of its cursor the timer wheel spans;
// events beyond it overflow into the far heap. Exported so tests can
// aim programs past it deliberately.
const WheelHorizon = time.Duration(wheelHorizonTicks << wheelTickBits)

// wheelLevel is one ring of slots plus its occupancy bitmap.
type wheelLevel struct {
	slots [wheelSlots][]event
	bits  [wheelSlots / 64]uint64
}

func (lv *wheelLevel) set(p int)   { lv.bits[p>>6] |= 1 << (p & 63) }
func (lv *wheelLevel) clear(p int) { lv.bits[p>>6] &^= 1 << (p & 63) }

// next reports the first occupied slot at position >= from, scanning
// only to the end of the ring (the caller handles window wrap via
// cascades, or a lap increment at the top level).
func (lv *wheelLevel) next(from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	w := from >> 6
	b := lv.bits[w] & (^uint64(0) << (from & 63))
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b), true
		}
		w++
		if w >= len(lv.bits) {
			return 0, false
		}
		b = lv.bits[w]
	}
}

// NewEventLoop returns an empty loop at virtual time zero.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now reports current virtual time.
func (l *EventLoop) Now() time.Duration { return l.now }

// Len reports the number of pending events.
func (l *EventLoop) Len() int { return l.pending }

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
	l.pending++
	l.place(event{at: t, seq: l.seq, h: h})
}

// ScheduleAfter schedules h to fire d after Now; a negative d clamps
// to 0.
func (l *EventLoop) ScheduleAfter(d time.Duration, h Handler) {
	l.ScheduleAt(l.now+max(d, 0), h)
}

// place routes an admitted event to its queue: the spill heap if it is
// due at or before the cursor's tick, the finest wheel level that
// spans its distance otherwise, or the far heap beyond the horizon.
// Cascades re-place events with the cursor already advanced, so a
// cascade can only move events to finer levels — it never reorders
// (dispatch order is decided purely by (at, seq) comparison, never by
// queue membership).
func (l *EventLoop) place(e event) {
	t := int64(e.at >> wheelTickBits)
	delta := t - l.tick
	if delta <= 0 {
		l.spill.push(e)
		return
	}
	// The level spanning delta, straight from its bit length: level k
	// covers deltas below 1<<((k+1)*wheelLevelBits).
	k := (bits.Len64(uint64(delta)) - 1) / wheelLevelBits
	if k >= wheelLevels {
		l.far.push(e)
		return
	}
	lv := &l.levels[k]
	p := int((t >> (k * wheelLevelBits)) & wheelSlotMask)
	s := lv.slots[p]
	if len(s) == cap(s) {
		s = l.growBuf(s)
	}
	s = append(s, e)
	lv.slots[p] = s
	lv.set(p)
}

// growBuf returns b with room to append: a recycled buffer when b is
// nil, else a copy with geometrically larger capacity. Growth is
// deliberately steeper than the runtime's large-slice factor (~1.25x),
// which would quadruple the bytes moved and zeroed across a bulk load:
// 2x while a slot is small, 4x once it holds a trace-scale batch, so
// cumulative allocation-zeroing plus copying stays under 1.7x the final
// buffer size. The outgrown buffer is dropped, not recycled: its
// contents are live in the copy, so clearing it for the free list would
// be pure overhead.
func (l *EventLoop) growBuf(b []event) []event {
	if b == nil {
		return l.getBuf()
	}
	f := 2
	if cap(b) >= 1024 {
		f = 4
	}
	nb := make([]event, len(b), f*cap(b))
	copy(nb, b)
	return nb
}

// refill makes the next dispatchable event visible in cur/spill,
// advancing the cursor across empty regions via the occupancy bitmaps.
// It reports false when no events are pending.
func (l *EventLoop) refill() bool {
	for {
		if l.curIdx < len(l.cur) || l.spill.len() > 0 {
			return true
		}
		if l.pending == 0 {
			return false
		}
		// Pull overflow events that have come within the horizon.
		l.drainFar()
		if l.spill.len() > 0 {
			return true
		}
		// Rest of the current level-0 window. This scan cannot cross a
		// coarser slot boundary (one window is exactly one level-1
		// slot), so no cascades come due on this path.
		if p, ok := l.levels[0].next(int(l.tick&wheelSlotMask) + 1); ok {
			l.loadSlot(p)
			continue
		}
		// Jump to the next occupied slot at any level.
		if l.jump() {
			continue
		}
		// Wheel empty: only far-future events remain. Move the cursor
		// to the earliest and let drainFar place it next pass.
		l.advanceTo(int64(l.far.min().at >> wheelTickBits))
	}
}

// loadSlot takes ownership of level-0 slot p as the current dispatch
// batch: one sort by (at, seq), then Step drains it in place. The
// previous batch's buffer is recycled.
func (l *EventLoop) loadSlot(p int) {
	lv := &l.levels[0]
	old := l.cur
	l.cur = lv.slots[p]
	lv.slots[p] = nil
	lv.clear(p)
	l.curIdx = 0
	sortEvents(l.cur)
	l.tick = l.tick&^int64(wheelSlotMask) | int64(p)
	l.putBuf(old)
}

// sortEvents orders a slot batch by (at, seq). Batch sorting is the
// wheel's per-event hot path (the heap pays per-event sift instead), so
// this is a specialized introsort with eventLess inlined — no
// comparator indirection, no generic machinery. seq is unique, so all
// keys are distinct: a plain median-of-three quicksort has no
// equal-element pathologies, and the depth bound keeps adversarial
// patterns at O(n log n) via the stdlib fallback.
func sortEvents(s []event) {
	quickEvents(s, 2*bits.Len(uint(len(s))))
}

func quickEvents(s []event, depth int) {
	for len(s) > 32 {
		if depth == 0 {
			slices.SortFunc(s, func(a, b event) int {
				if eventLess(a, b) {
					return -1
				}
				return 1
			})
			return
		}
		depth--
		// Median-of-three pivot, parked at the end for a Lomuto pass.
		m, hi := len(s)/2, len(s)-1
		if eventLess(s[m], s[0]) {
			s[0], s[m] = s[m], s[0]
		}
		if eventLess(s[hi], s[m]) {
			s[m], s[hi] = s[hi], s[m]
			if eventLess(s[m], s[0]) {
				s[0], s[m] = s[m], s[0]
			}
		}
		s[m], s[hi] = s[hi], s[m]
		pivot := s[hi]
		i := 0
		for j := 0; j < hi; j++ {
			if eventLess(s[j], pivot) {
				s[i], s[j] = s[j], s[i]
				i++
			}
		}
		s[i], s[hi] = s[hi], s[i]
		// Recurse into the smaller half, iterate on the larger.
		if i < len(s)-i {
			quickEvents(s[:i], depth)
			s = s[i+1:]
		} else {
			quickEvents(s[i+1:], depth)
			s = s[:i]
		}
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for j > 0 && eventLess(e, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = e
	}
}

// jump advances the cursor to the occupied slot with the smallest base
// tick across all levels and consumes it (advanceTo cascades coarse
// slots, including the chosen one; a level-0 choice additionally loads
// the slot as the dispatch batch). A ring scan
// that finds nothing at or after the cursor's position wraps to the
// ring's next lap — a slot whose coarser bits differ from the
// cursor's, reachable only by crossing the level-above boundary, which
// may itself be empty. Every slot's base is a lower bound on its
// events' ticks, so jumping to the minimum base never passes a pending
// event. jump reports false only when the whole wheel is empty.
func (l *EventLoop) jump() bool {
	best := int64(-1)
	bestLevel, bestPos := 0, 0
	for k := 0; k < wheelLevels; k++ {
		shift := k * wheelLevelBits
		ringPos := int((l.tick >> shift) & wheelSlotMask)
		p, ok := l.levels[k].next(ringPos + 1)
		lap := int64(0)
		if !ok {
			if p, ok = l.levels[k].next(0); !ok {
				continue
			}
			lap = wheelSlots
		}
		base := (l.tick>>shift&^int64(wheelSlotMask) + lap + int64(p)) << shift
		if best < 0 || base < best {
			best, bestLevel, bestPos = base, k, p
		}
	}
	if best < 0 {
		return false
	}
	l.advanceTo(best)
	if bestLevel == 0 {
		l.loadSlot(bestPos)
	}
	return true
}

// advanceTo moves the cursor forward and cascades, coarsest first,
// every occupied coarse slot whose range now contains it. Without this
// an event could strand: when a finer slot shares its base tick with
// an occupied coarser slot (or the cursor lands mid-range of one), the
// cursor enters the coarse slot's range, and later ring scans —
// which start after the cursor's own position — would never see it.
// On ties jump prefers the finest level precisely so that the coarser
// slot at the same base is cascaded here before the finer one is
// dispatched, keeping (at, seq) order intact. A cascaded slot holding
// next-lap events is re-placed harmlessly: place routes by distance,
// so they land back in the wheel untouched in order terms.
func (l *EventLoop) advanceTo(t int64) {
	old := l.tick
	l.tick = t
	for k := wheelLevels - 1; k >= 1; k-- {
		shift := k * wheelLevelBits
		if old>>shift == t>>shift {
			continue
		}
		p := int((t >> shift) & wheelSlotMask)
		if l.levels[k].slots[p] != nil {
			l.cascade(k, p)
		}
	}
}

// cascade redistributes level k's slot p into finer levels (or spill,
// for events due exactly at the cursor's new tick).
func (l *EventLoop) cascade(k, p int) {
	lv := &l.levels[k]
	buf := lv.slots[p]
	lv.slots[p] = nil
	lv.clear(p)
	for _, e := range buf {
		l.place(e)
	}
	l.putBuf(buf)
}

// drainFar moves overflow events that are now within the horizon into
// the wheel.
func (l *EventLoop) drainFar() {
	for l.far.len() > 0 {
		if int64(l.far.min().at>>wheelTickBits)-l.tick >= wheelHorizonTicks {
			return
		}
		l.place(l.far.pop())
	}
}

func (l *EventLoop) getBuf() []event {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return b
	}
	return make([]event, 0, 8)
}

// putBuf recycles a consumed slot buffer. The single bulk clear here
// replaces per-event zeroing on the dispatch and cascade paths (one
// ranged write barrier instead of one per entry) and keeps recycled
// buffers from pinning dispatched handlers.
func (l *EventLoop) putBuf(b []event) {
	if cap(b) == 0 || len(l.free) >= wheelSlots {
		return
	}
	// Entries past len are zero already: growth allocations come zeroed
	// and this clear re-establishes the invariant for [0, len) before
	// the buffer re-enters the free list.
	clear(b)
	l.free = append(l.free, b[:0])
}

// Peek reports the timestamp of the earliest pending event without
// dispatching it. The fault engine uses it to run a loop only up to a
// fail-stop cutoff: step while Peek ≤ T, then account everything still
// pending as lost.
func (l *EventLoop) Peek() (time.Duration, bool) {
	if !l.refill() {
		return 0, false
	}
	if l.curIdx < len(l.cur) {
		at := l.cur[l.curIdx].at
		if l.spill.len() > 0 && l.spill.min().at < at {
			at = l.spill.min().at
		}
		return at, true
	}
	return l.spill.min().at, true
}

// Step dispatches the earliest pending event, advancing Now to its
// timestamp. It reports whether an event was dispatched.
func (l *EventLoop) Step() bool {
	if !l.refill() {
		return false
	}
	var e event
	if l.curIdx < len(l.cur) {
		if l.spill.len() > 0 && eventLess(l.spill.min(), l.cur[l.curIdx]) {
			e = l.spill.pop()
		} else {
			// Consumed entries stay in cur until the batch drains;
			// putBuf bulk-clears the buffer when the next batch loads.
			e = l.cur[l.curIdx]
			l.curIdx++
		}
	} else {
		e = l.spill.pop()
	}
	l.pending--
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
