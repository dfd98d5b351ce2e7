package ukpool

import "sync"

// chunkLen is how many requests one chunk carries: 4,096 x 56 B, about
// 224 KB, so a reader takes the lock once per chunk, not per request.
const chunkLen = 4096

// chunk is one fixed-size run of a feed's requests.
type chunk struct {
	reqs   [chunkLen]Request
	n      int    // requests held: chunkLen in every chunk but a feed's last
	passed int    // readers that have moved past it
	next   *chunk // the feed's next published chunk
}

// Chunks is a bounded free list of request chunks that feeds draw
// from. A producer that needs a chunk while every one is out waits for
// readers to hand one back, so the requests in flight between the
// producer and the serves reading them never exceed the limit's worth —
// whatever the length of the trace. One mutex guards the list and every
// feed drawing on it.
type Chunks struct {
	mu    sync.Mutex
	cond  sync.Cond
	free  []*chunk
	live  int // chunks out of the free list
	limit int
	peak  int
}

// NewChunks returns a free list that hands out at most limit chunks at
// once (at least 2). Chunks are made on first demand and reused after.
// Fewer than limit feeds may be open on it at a time: each can hold one
// half-filled chunk no reader sees yet, and with every chunk held that
// way the producer would wait for ever.
func NewChunks(limit int) *Chunks {
	c := &Chunks{limit: max(limit, 2)}
	c.cond.L = &c.mu
	return c
}

// Peak reports the most chunks that were ever out at once.
func (c *Chunks) Peak() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

func (c *Chunks) get() *chunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.free) == 0 && c.live == c.limit {
		c.cond.Wait()
	}
	c.live++
	c.peak = max(c.peak, c.live)
	if n := len(c.free); n > 0 {
		ch := c.free[n-1]
		c.free = c.free[:n-1]
		return ch
	}
	return new(chunk)
}

// putLocked returns ch to the free list and wakes a producer waiting
// for it; c.mu is held.
func (c *Chunks) putLocked(ch *chunk) {
	ch.n, ch.passed, ch.next = 0, 0, nil
	c.free = append(c.free, ch)
	c.live--
	c.cond.Broadcast()
}

// Feed is a Workload that a producer fills while a serve reads it. The
// producer pushes requests in arrival order; they travel in chunks from
// a Chunks free list, published to readers as each fills (or when the
// feed closes), and go back to the list once every reader has passed
// them. Next blocks until the next request is published or the feed is
// closed. A sharded serve deals one feed round-robin to its shards, so
// shard s reads requests s, s+n, s+2n, ... straight from the chunks.
//
// Push and Close belong to one producer goroutine; the readers run on
// others. A Feed is read by one serve, once.
type Feed struct {
	cs *Chunks

	// guarded by cs.mu
	head, tail *chunk // published chunks not yet passed by every reader
	closed     bool
	readers    []*feedReader // dealt readers; nil until the first read
	gone       int           // readers finished: they pass every later chunk

	fill *chunk      // producer only: the chunk being filled
	one  *feedReader // the reader Next reads through
}

// NewFeed returns an empty feed drawing chunks from cs.
func NewFeed(cs *Chunks) *Feed { return &Feed{cs: cs} }

// Push appends req to the feed. It blocks while cs has no chunk to give.
func (f *Feed) Push(req Request) {
	if f.fill == nil {
		f.fill = f.cs.get()
	}
	f.fill.reqs[f.fill.n] = req
	f.fill.n++
	if f.fill.n == chunkLen {
		f.publish(false)
	}
}

// Close publishes what the producer holds and ends the feed: readers
// that have read everything see the end instead of waiting.
func (f *Feed) Close() { f.publish(true) }

// publish hands the chunk being filled (if any) to the readers, and
// with end set closes the feed in the same step.
func (f *Feed) publish(end bool) {
	ch := f.fill
	f.fill = nil
	cs := f.cs
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ch != nil {
		ch.passed = f.gone
		if f.tail == nil {
			f.head = ch
		} else {
			f.tail.next = ch
		}
		f.tail = ch
		f.recycleLocked()
	}
	f.closed = f.closed || end
	cs.cond.Broadcast()
}

// Empty blocks until the feed has published a request or been closed,
// and reports whether it was closed without one. It is for the reading
// side, before the first read.
func (f *Feed) Empty() bool {
	cs := f.cs
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for f.head == nil && !f.closed {
		cs.cond.Wait()
	}
	return f.head == nil
}

// Next implements Workload: the feed read by a single reader.
func (f *Feed) Next() (Request, bool) {
	if f.one == nil {
		f.one = f.deal(1)[0]
	}
	return f.one.Next()
}

// deal splits the feed round-robin over n readers. It must come before
// any read.
func (f *Feed) deal(n int) []*feedReader {
	f.cs.mu.Lock()
	defer f.cs.mu.Unlock()
	return f.dealLocked(n)
}

func (f *Feed) dealLocked(n int) []*feedReader {
	if f.readers != nil {
		panic("ukpool: feed dealt twice")
	}
	f.readers = make([]*feedReader, n)
	for s := range f.readers {
		f.readers[s] = &feedReader{f: f, i: s, step: n}
	}
	return f.readers
}

// dealShards deals w round-robin onto shards through one Feed: w itself
// when it is one, else a feed that a pump goroutine fills from w, which
// wg then waits for.
func dealShards(w Workload, shards int, wg *sync.WaitGroup) []*feedReader {
	f, ok := w.(*Feed)
	if !ok {
		// Two chunks a shard keep every shard reading while the pump
		// fills the next.
		f = NewFeed(NewChunks(2 * shards))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req, ok := w.Next(); ok; req, ok = w.Next() {
				f.Push(req)
			}
			f.Close()
		}()
	}
	return f.deal(shards)
}

// stop finishes every reader still reading — a serve that returned
// early must not leave the producer waiting for chunks nobody will
// pass. A feed nobody read gets one reader, finished at once.
func (f *Feed) stop() {
	f.cs.mu.Lock()
	defer f.cs.mu.Unlock()
	if f.readers == nil {
		f.dealLocked(1)
	}
	for _, r := range f.readers {
		r.finishLocked()
	}
	f.cs.cond.Broadcast()
}

// passLocked records that one more reader has moved past ch, and
// returns every leading chunk all readers have passed to the free list.
func (f *Feed) passLocked(ch *chunk) {
	ch.passed++
	f.recycleLocked()
}

func (f *Feed) recycleLocked() {
	for f.head != nil && f.readers != nil && f.head.passed == len(f.readers) {
		ch := f.head
		f.head = ch.next
		if f.head == nil {
			f.tail = nil
		}
		f.cs.putLocked(ch)
	}
}

// feedReader is one reader's cursor: it reads every step-th request of
// the feed, from the i-th of its current chunk on.
type feedReader struct {
	f    *Feed
	c    *chunk // current chunk; nil before the first
	i    int
	step int
	done bool // guarded by the feed's lock
}

// Next implements Workload.
func (r *feedReader) Next() (Request, bool) {
	for r.c == nil || r.i >= r.c.n {
		if !r.advance() {
			return Request{}, false
		}
	}
	req := r.c.reqs[r.i]
	r.i += r.step
	return req, true
}

// advance moves the cursor to the next published chunk, waiting for
// the producer if there is none yet. It reports false at the end of
// the feed, or when the reader was finished early.
func (r *feedReader) advance() bool {
	f, cs := r.f, r.f.cs
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for !r.done {
		next := f.head
		if r.c != nil {
			next = r.c.next
		}
		if next != nil {
			if r.c != nil {
				r.i -= chunkLen
				f.passLocked(r.c)
			}
			r.c = next
			return true
		}
		if f.closed {
			r.finishLocked()
			break
		}
		cs.cond.Wait()
	}
	return false
}

// stop finishes the reader early.
func (r *feedReader) stop() {
	cs := r.f.cs
	cs.mu.Lock()
	defer cs.mu.Unlock()
	r.finishLocked()
	cs.cond.Broadcast()
}

// finishLocked passes every chunk from the reader's position on, and
// every chunk published after, so the producer never waits on a reader
// that has stopped reading.
func (r *feedReader) finishLocked() {
	if r.done {
		return
	}
	r.done = true
	f := r.f
	ch := r.c
	if ch == nil {
		ch = f.head
	}
	for ch != nil {
		next := ch.next
		f.passLocked(ch)
		ch = next
	}
	r.c = nil
	f.gone++
}
