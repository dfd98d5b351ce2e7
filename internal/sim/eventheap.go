package sim

// eventHeap is EventLoop's queue: a hand-rolled binary min-heap of
// events ordered by eventLess, over a plain slice rather than
// container/heap, whose Push and Pop box every entry into an interface
// value. Popped slots are zeroed so the slice never pins a dispatched
// handler, and the slice keeps its capacity, so a warm loop schedules
// and dispatches without allocating.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// min returns the root without removing it. Call only when non-empty.
func (h *eventHeap) min() event { return h.ev[0] }

// push sifts e up from a new leaf, moving each later parent down into
// the hole instead of swapping.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e, ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

// pop removes the root and sifts the last leaf down from the top. Which
// child is earlier is close to a coin flip, which a branch predictor
// loses half the time, so the pick adds earlierBit instead of
// branching: on a replayed pool-bursty event stream, branching there
// cost 13% more per event.
func (h *eventHeap) pop() event {
	ev := h.ev
	top := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{}
	ev = ev[:n]
	h.ev = ev
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += earlierBit(&ev[c+1], &ev[c])
		}
		if !eventLess(ev[c], last) {
			break
		}
		ev[i] = ev[c]
		i = c
	}
	ev[i] = last
	return top
}

// earlierBit is eventLess(*a, *b) as 0 or 1, computed without a branch.
func earlierBit(a, b *event) int {
	return b2i(a.at < b.at) | b2i(a.at == b.at)&b2i(a.seq < b.seq)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
