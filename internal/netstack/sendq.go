package netstack

// The TCP send queue. Bytes from Write are copied into the connection's
// sndBuf; bytes from WriteRef are not copied at all: the queue keeps
// the caller's slice and reads it at every (re)transmission, which is
// sound because a lender promises the bytes do not change until the
// peer has acknowledged them (vfscore.Sendfile's pages, say). From a
// WriteRef until the queue next drains, sndSpans lists the whole queue
// in order: a lent span is the slice itself, an owned span a run of n
// bytes of sndBuf. The rest of the time — always, on a connection that
// never lends, which never makes a span list — sndBuf alone is the
// queue and none of the span bookkeeping below runs.

// sndSpan is one run of the send queue: lent bytes when lent is set,
// otherwise the next n owned bytes of sndBuf.
type sndSpan struct {
	lent []byte
	n    int
}

// sndPos is a position in the send queue: off bytes into span (both
// zero while the queue has no spans), with owned bytes of sndBuf before
// it, counted from the queue head. A position is never left at the end
// of a span: it moves on to the start of the next.
type sndPos struct {
	span, off, owned int
}

// queued reports the bytes in the send queue, owned and lent.
func (c *TCPConn) queued() int { return c.sndBuf.Len() + c.sndLent }

// lend queues p by reference. The first lend turns the queue into
// spans, whatever sndBuf holds becoming its first owned run. The
// connection's first lend gives the span list the room sizeQueues
// gives the segment queues, so that a response lent page by page does
// not grow it span by span.
func (c *TCPConn) lend(p []byte) {
	if c.sndSpans.buf == nil {
		c.sndSpans.buf = make([]sndSpan, 0, 2*winSegs)
	}
	if c.sndSpans.Len() == 0 && c.sndBuf.Len() > 0 {
		c.sndSpans.Push(sndSpan{n: c.sndBuf.Len()})
		if c.sndSent < c.sndBuf.Len() {
			c.sndCur.off = c.sndSent
		} else {
			c.sndCur.span = 1
		}
	}
	c.sndSpans.Push(sndSpan{lent: p, n: len(p)})
	c.sndLent += len(p)
}

// gather copies the queued bytes from position p into dst, which the
// queue must cover, and returns the position after them. It touches
// only the spans those bytes lie in.
func (c *TCPConn) gather(dst []byte, p sndPos) sndPos {
	if c.sndSpans.Len() == 0 {
		p.owned += copy(dst, c.sndBuf.Items()[p.owned:])
		return p
	}
	spans := c.sndSpans.Items()
	for len(dst) > 0 {
		sp := &spans[p.span]
		var k int
		if sp.lent != nil {
			k = copy(dst, sp.lent[p.off:])
		} else {
			k = copy(dst, c.sndBuf.Items()[p.owned:p.owned+sp.n-p.off])
			p.owned += k
		}
		dst = dst[k:]
		if p.off += k; p.off == sp.n {
			p.span, p.off = p.span+1, 0
		}
	}
	return p
}

// dropAcked removes n acknowledged bytes from the front of the queue,
// and with them every span they finish, releasing its lent slice.
func (c *TCPConn) dropAcked(n int) {
	if c.sndSpans.Len() == 0 {
		c.sndBuf.Drop(n)
		c.sndCur.owned -= n
		return
	}
	spans := c.sndSpans.Items()
	done := 0
	for n > 0 {
		sp := &spans[done]
		k := min(n, sp.n-c.sndFront)
		if sp.lent != nil {
			c.sndLent -= k
		} else {
			c.sndBuf.Drop(k)
			c.sndCur.owned -= k
		}
		n -= k
		if c.sndFront += k; c.sndFront == sp.n {
			*sp = sndSpan{}
			c.sndFront = 0
			done++
		}
	}
	c.sndSpans.Drop(done)
	c.sndCur.span -= done
}
