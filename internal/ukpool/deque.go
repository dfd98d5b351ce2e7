package ukpool

// deque is a growable ring with O(1) operations at both ends. The idle
// set uses the back as the hot LIFO end (most recently idled) and the
// front as the cold retirement end; the request queue is plain FIFO.
// It replaces slices whose pop-front reslicing made retirement (and
// the wait queue behind it) O(n) in aggregate.
type deque[T any] struct {
	buf  []T
	head int
	n    int
}

func (d *deque[T]) len() int { return d.n }

func (d *deque[T]) grow() {
	size := 2 * len(d.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = buf, 0
}

func (d *deque[T]) pushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

func (d *deque[T]) popBack() T {
	var zero T
	d.n--
	i := (d.head + d.n) % len(d.buf)
	v := d.buf[i]
	d.buf[i] = zero
	return v
}

func (d *deque[T]) popFront() T {
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v
}

func (d *deque[T]) reset() { *d = deque[T]{} }
