package sim

// eventHeap is a hand-rolled binary min-heap of events ordered by
// eventLess, over a plain slice rather than container/heap: the serving
// experiments push and pop millions of events per run, and avoiding the
// interface boxing keeps the queue out of the profile. It backs the
// timer wheel's two escape hatches: the current-instant spill queue and
// the far-future overflow queue.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// min returns the root without removing it. Call only when non-empty.
func (h *eventHeap) min() event { return h.ev[0] }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h.ev[i], h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{}
	h.ev = h.ev[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && eventLess(h.ev[left], h.ev[smallest]) {
			smallest = left
		}
		if right < n && eventLess(h.ev[right], h.ev[smallest]) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
	return top
}
