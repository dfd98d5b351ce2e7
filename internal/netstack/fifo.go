package netstack

// fifo is an offset FIFO over one reusable backing array: Push appends
// at the tail, Drop advances a head offset, and the array is reused
// rather than re-sliced away — `q = q[n:]` followed by `append(q, …)`
// throws the consumed capacity away and regrows the slice on every
// window. A drained queue resets to the start of its array; a queue
// that never drains compacts in place once the dead prefix is at least
// as long as the live part, so every element is moved at most once per
// time it is consumed and steady-state traffic allocates nothing. The
// socket byte queues (rcvBuf, sndBuf) and the retransmit queue share
// it.
type fifo[T any] struct {
	buf  []T
	head int
}

// Len reports the queued elements.
func (q *fifo[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued elements, oldest first. The slice aliases
// the queue and is valid until the next Push.
func (q *fifo[T]) Items() []T { return q.buf[q.head:] }

// Push appends p at the tail.
func (q *fifo[T]) Push(p ...T) {
	if q.head > 0 && len(q.buf)+len(p) > cap(q.buf) && q.head >= q.Len() {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, p...)
}

// Drop consumes the n oldest elements.
func (q *fifo[T]) Drop(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Reset empties the queue and releases its array.
func (q *fifo[T]) Reset() { *q = fifo[T]{} }
