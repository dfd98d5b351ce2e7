package netstack

import (
	"bytes"
	"testing"

	"unikraft/internal/uknetdev"
)

// recvHarness drives one connection's receive queue by hand. The
// harness plays the peer: it builds each segment in the sending pool
// (world.frames) and hands it to the connection's stack as a device
// would, reads what the connection sends back straight off the peer's
// device, and holds both against model, the bytes a byte FIFO would
// hold.
type recvHarness struct {
	t     *testing.T
	w     *world
	c     *TCPConn
	dev   *uknetdev.VirtioNet // the peer's device, where c's ACKs land
	rx    []*uknetdev.Netbuf
	sent  int    // stream bytes the connection has accepted
	model []byte // accepted and not yet read
	err   error  // what Read reports once model is empty
}

func newRecvHarness(t *testing.T) *recvHarness {
	w := newWorld(t)
	_, c := connect(t, w)
	return &recvHarness{
		t: t, w: w, c: c,
		dev: w.cd,
		rx:  make([]*uknetdev.Netbuf, 64),
		err: ErrWouldBlock,
	}
}

// recvSizes are the segment payloads an op can pick; recvReads the
// read buffers.
var (
	recvSizes = [...]int{1, 7, 100, 536, 1000, defaultMSS}
	recvReads = [...]int{0, 1, 100, defaultMSS, 4096, 16 << 10, 64 << 10}
)

// streamByte is the byte at offset off of the stream the peer sends.
func streamByte(off int) byte { return byte(off) ^ byte(off>>8)*31 }

// segment sends the connection the next n stream bytes, in order, and
// checks the answer: the bytes the queue has room for are taken and
// acknowledged with the window the byte FIFO would advertise, or, with
// rcvFramesMax frames already held, the segment is dropped, counted
// and not acknowledged. On a torn-down connection it is refused.
func (h *recvHarness) segment(n int) {
	c := h.c
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = streamByte(h.sent + i)
	}
	hdr := tcpHeader{
		SrcPort: c.tuple.Remote.Port, DstPort: c.tuple.Local.Port,
		Seq: c.irs + 1 + uint32(h.sent), Ack: c.sndNxt, Flags: tcpAck, Window: tcpWindow,
	}
	open := c.state != stClosed
	take := min(n, rcvBufCap-len(h.model))
	drop := open && take > 0 && c.rcvQ.Len() >= rcvFramesMax
	dropped := h.w.server.Stats().RxDropped
	h.w.deliver(h.w.server, frameBetween(h.w.client, h.w.server, ProtoTCP, func(b []byte) int {
		hl := hdr.encodedLen()
		copy(b[hl:], payload)
		putTCP(b, hdr, h.w.client.cfg.Addr, h.w.server.cfg.Addr, n)
		return hl + n
	}))
	if got := h.w.server.Stats().RxDropped - dropped; drop != (got == 1) || got > 1 {
		h.t.Fatalf("segment of %d bytes with %d frames held: RxDropped moved by %d, want a drop: %v", n, c.rcvQ.Len(), got, drop)
	}
	if open && !drop {
		h.model = append(h.model, payload[:take]...)
		h.sent += take
	}
	acks := h.drain()
	switch {
	case !open:
		// Refused with a RST by the stack: nothing to check here.
	case drop && acks != 0:
		h.t.Fatalf("a dropped segment was acknowledged %d times", acks)
	case !drop && acks != 1:
		h.t.Fatalf("an in-order segment was acknowledged %d times", acks)
	}
}

// read reads into a buffer of n bytes and checks the bytes against
// the model's head.
func (h *recvHarness) read(n int) {
	buf := make([]byte, n)
	got, err := h.c.Read(buf)
	want := min(n, len(h.model))
	switch {
	case len(h.model) == 0 && (got != 0 || err != h.err):
		h.t.Fatalf("Read on an empty queue = %d, %v; want 0, %v", got, err, h.err)
	case len(h.model) > 0 && (got != want || err != nil):
		h.t.Fatalf("Read(%d) with %d queued = %d, %v; want %d, nil", n, len(h.model), got, err, want)
	case !bytes.Equal(buf[:got], h.model[:got]):
		h.t.Fatalf("Read returned %d bytes that are not the stream's", got)
	}
	h.model = h.model[got:]
	h.drain()
}

// drain reads every segment the connection sent and checks that each
// advertises the window and acknowledges the sequence number a byte
// FIFO holding the model would; it returns how many it read.
func (h *recvHarness) drain() int {
	count := 0
	for more := true; more; {
		var n int
		n, more, _ = h.dev.RxBurstZC(0, h.rx)
		for _, nb := range h.rx[:n] {
			_, b, _ := ParseEth(nb.Bytes())
			ip, b, _ := ParseIPv4(b)
			th, _, err := parseTCP(b, ip.Src, ip.Dst)
			if err != nil {
				h.t.Fatalf("malformed TCP on the wire: %v", err)
			}
			nb.Release()
			count++
			if th.Flags&tcpRst != 0 {
				continue
			}
			if want := clampWnd(rcvBufCap - len(h.model)); th.Window != want {
				h.t.Fatalf("window %d advertised with %d bytes queued, want %d", th.Window, len(h.model), want)
			}
			if want := h.c.irs + 1 + uint32(h.sent); th.Ack != want {
				h.t.Fatalf("acknowledged %d, want %d", th.Ack-h.c.irs-1, h.sent)
			}
		}
	}
	return count
}

// step runs one operation: op picks what, arg how much.
func (h *recvHarness) step(op, arg byte) {
	c := h.c
	switch op % 6 {
	case 0:
		h.segment(recvSizes[int(arg)%len(recvSizes)])
	case 1: // a burst of full segments, enough to fill the queue's bytes
		for range int(arg)%64 + 1 {
			h.segment(defaultMSS)
		}
	case 2:
		h.read(recvReads[int(arg)%len(recvReads)])
	case 3: // a flood of one-byte segments past the frame bound
		for range rcvFramesMax - c.rcvQ.Len() + 1 + int(arg)%4 {
			h.segment(1)
		}
	case 4:
		if c.state != stClosed {
			c.abort(errConnReset, true)
			h.err = errConnReset
		}
		h.drain()
	case 5: // the peer resets the connection
		if c.state != stClosed {
			h.w.deliver(h.w.server, frameBetween(h.w.client, h.w.server, ProtoTCP, func(b []byte) int {
				return putTCP(b, tcpHeader{
					SrcPort: c.tuple.Remote.Port, DstPort: c.tuple.Local.Port,
					Seq: c.rcvNxt, Flags: tcpRst,
				}, h.w.client.cfg.Addr, h.w.server.cfg.Addr, 0)
			}))
			h.err = errConnReset
		}
		h.drain()
	}
}

// check holds the queue to the model after every step: its spans add
// up to the queued byte count and to the model, each holds one live
// frame that only the queue references, and every frame the sending
// pool made is either held there or back on its free list.
func (h *recvHarness) check() {
	c := h.c
	sum := 0
	for i, sp := range c.rcvQ.Items() {
		if len(sp.b) == 0 || sp.nb.Refs() != 1 {
			h.t.Fatalf("span %d: %d bytes in a frame with %d references", i, len(sp.b), sp.nb.Refs())
		}
		if !bytes.Equal(sp.b, h.model[sum:sum+len(sp.b)]) {
			h.t.Fatalf("span %d does not hold the stream's bytes", i)
		}
		sum += len(sp.b)
	}
	if sum != c.rcvLen || sum != len(h.model) {
		h.t.Fatalf("spans hold %d bytes, rcvLen %d, model %d", sum, c.rcvLen, len(h.model))
	}
	if c.rcvQ.Len() > rcvFramesMax {
		h.t.Fatalf("%d frames held, bound %d", c.rcvQ.Len(), rcvFramesMax)
	}
	if free, made := h.w.frames.FreeLen(), int(h.w.frames.News); free+c.rcvQ.Len() != made {
		h.t.Fatalf("sending pool: %d free + %d held of %d made", free, c.rcvQ.Len(), made)
	}
}

// FuzzRecvQueue is the receive-side twin of FuzzSendQueue: a
// differential check of the receive queue against a flat model of the
// byte stream. Each pair of input bytes is one step — an in-order
// segment of a chosen size or a burst of full ones, delivered as a
// pooled frame; a read of a chosen size; a flood of one-byte segments
// past rcvFramesMax; a local abort; a RST from the peer — and after
// every step every Read must have returned the model's bytes, the
// queue's spans must add up to its byte count and the model, every
// ACK must carry the window a byte FIFO would advertise, every held
// frame must be live and referenced by the queue alone (a frame
// released twice panics in uknetdev), and a flood must be dropped and
// counted past the bound. Once everything is read, the sending pool
// holds every buffer it made.
func FuzzRecvQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		h := newRecvHarness(t)
		for ; len(ops) >= 2; ops = ops[2:] {
			h.step(ops[0], ops[1])
			h.check()
		}
		h.step(4, 0) // abort: what is queued stays readable
		for len(h.model) > 0 {
			h.read(16 << 10)
		}
		h.read(1)
		h.check()
		if free, made := h.w.frames.FreeLen(), int(h.w.frames.News); free != made {
			t.Fatalf("at quiescence the sending pool has %d of its %d buffers free", free, made)
		}
	})
}
