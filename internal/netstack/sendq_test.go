package netstack

import (
	"bytes"
	"testing"

	"unikraft/internal/uknetdev"
)

// sendHarness drives one connection's send queue by hand. The peer's
// stack never sees the connection's segments: the harness reads each
// one off the wire and checks its bytes against model, and answers
// with ACKs and windows of its own choosing.
type sendHarness struct {
	t     *testing.T
	w     *world
	c     *TCPConn
	dev   *uknetdev.VirtioNet // the peer's device, where c's segments land
	rx    []*uknetdev.Netbuf
	model []byte // every byte the queue accepted, in order
	owned []byte // what Write copies from
	src   []byte // what WriteRef lends from
	was   []byte // src as it was before any lending
}

func newSendHarness(t *testing.T) *sendHarness {
	w := newWorld(t)
	c, _ := connect(t, w)
	src := pattern(96<<10, 21)
	return &sendHarness{
		t: t, w: w, c: c,
		dev:   w.sd,
		rx:    make([]*uknetdev.Netbuf, 64),
		owned: pattern(96<<10, 22),
		src:   src,
		was:   bytes.Clone(src),
	}
}

// sendSizes are the write lengths an op can pick: empty, odd, around
// one segment, around one page, a full window and more.
var sendSizes = [...]int{0, 1, 7, 536, defaultMSS - 1, defaultMSS, defaultMSS + 1, 4095, 4096, 8193, tcpWindow, 96 << 10}

// sendWindows are the windows an ACK can advertise.
var sendWindows = [...]uint16{tcpWindow, 0, defaultMSS, 8000}

// write offers p through Write or WriteRef and records what was taken.
func (h *sendHarness) write(p []byte, lend bool) (int, error) {
	write := h.c.Write
	if lend {
		write = h.c.WriteRef
	}
	n, err := write(p)
	if n < 0 || n > len(p) || (err != nil && n != 0) {
		h.t.Fatalf("write of %d bytes = %d, %v", len(p), n, err)
	}
	h.model = append(h.model, p[:n]...)
	return n, err
}

// slice picks a write of one of sendSizes from src or owned.
func (h *sendHarness) slice(arg byte, lend bool) []byte {
	size := sendSizes[int(arg)%len(sendSizes)]
	from := h.owned
	if lend {
		from = h.src
	}
	off := int(arg) * 397 % (len(from) - size + 1)
	return from[off : off+size]
}

// ack injects a segment from the peer acknowledging up to seq.
func (h *sendHarness) ack(seq uint32, win uint16) {
	c := h.c
	hdr := tcpHeader{
		SrcPort: c.tuple.Remote.Port, DstPort: c.tuple.Local.Port,
		Seq: c.rcvNxt, Ack: seq, Flags: tcpAck, Window: win,
	}
	h.w.deliver(h.w.client, frameBetween(h.w.server, h.w.client, ProtoTCP, func(b []byte) int {
		return putTCP(b, hdr, h.w.server.cfg.Addr, h.w.client.cfg.Addr, 0)
	}))
}

// step runs one operation: op picks what (and for ACKs the window),
// arg how much.
func (h *sendHarness) step(op, arg byte) {
	c := h.c
	switch op % 10 {
	case 0, 1:
		h.write(h.slice(arg, op%10 == 1), op%10 == 1)
	case 2: // cumulative or partial ACK, now and then of the future
		inflight := uint64(c.sndNxt - c.sndUna)
		h.ack(c.sndUna+uint32(inflight*uint64(arg)/200), sendWindows[op/10%4])
	case 3: // duplicate ACK; the third in a row retransmits
		h.ack(c.sndUna, tcpWindow)
	case 4:
		c.retransmitHead()
	case 5: // retransmission timeout, and past maxRetries an abort
		h.w.cm.Charge(c.rto + 1)
		h.w.client.Poll()
	case 6:
		if arg&1 != 0 {
			c.Cork()
		} else {
			c.Uncork()
		}
	case 7: // fill the queue to sndBufCap: the last write comes up short
		lend := arg&1 != 0
		for range 8 {
			p := h.slice(11, lend)
			if n, _ := h.write(p, lend); n < len(p) {
				break
			}
		}
		if c.unsent() == sndBufCap && c.state == stEstablished {
			if _, err := h.write(h.slice(1, lend), lend); err != ErrBufferFull {
				h.t.Fatalf("write into a full queue: %v, want ErrBufferFull", err)
			}
		}
	case 8:
		c.Close()
	case 9:
		c.abort(errConnReset, true)
	}
}

// drain reads every segment the connection put on the wire and checks
// its payload against the model at its sequence number.
func (h *sendHarness) drain() {
	for more := true; more; {
		var n int
		n, more, _ = h.dev.RxBurstZC(0, h.rx)
		for _, nb := range h.rx[:n] {
			h.verify(nb.Bytes())
			nb.Release()
		}
	}
}

func (h *sendHarness) verify(frame []byte) {
	eth, b, err := ParseEth(frame)
	if err != nil || eth.EtherType != EtherTypeIPv4 {
		h.t.Fatalf("not an IPv4 frame on the wire: %v", err)
	}
	ip, b, err := ParseIPv4(b)
	if err != nil {
		h.t.Fatalf("malformed IPv4 on the wire: %v", err)
	}
	th, payload, err := parseTCP(b, ip.Src, ip.Dst)
	if err != nil {
		h.t.Fatalf("malformed TCP on the wire: %v", err)
	}
	off := int(th.Seq - (h.c.iss + 1))
	if len(payload) > 0 && (off < 0 || off+len(payload) > len(h.model) || !bytes.Equal(payload, h.model[off:off+len(payload)])) {
		h.t.Fatalf("segment at stream offset %d carries %d bytes that are not the stream's (%d written)", off, len(payload), len(h.model))
	}
}

// check holds the queue to the model after every step: its invariants,
// its whole content against the model's unacknowledged tail, lent bytes
// never written, nothing kept after teardown.
func (h *sendHarness) check() {
	c := h.c
	checkSendQueue(h.t, c)
	if !bytes.Equal(h.src, h.was) {
		h.t.Fatal("a lent slice was written")
	}
	q := make([]byte, c.queued())
	c.gather(q, sndPos{off: c.sndFront})
	if head := len(h.model) - len(q); head < 0 || !bytes.Equal(q, h.model[head:]) {
		h.t.Fatalf("the queue's %d bytes are not the last %d written", len(q), len(q))
	}
	if c.state == stClosed && (c.queued() != 0 || c.sndSpans.buf != nil || c.retransQ.Len() != 0) {
		h.t.Fatal("teardown kept queued bytes or lent slices")
	}
}

// FuzzSendQueue is a differential check of the send queue against a
// flat model of the byte stream. Each pair of input bytes is one step —
// Write or WriteRef of an empty, odd, segment-, page- or window-sized
// slice, a cumulative or partial ACK with some window, a duplicate
// ACK, a head retransmission, a retransmission timeout, cork or uncork,
// a fill up to the short write at sndBufCap, close, abort — and after
// every step each segment on the wire must carry the model's bytes at
// its sequence number, the queue must satisfy checkSendQueue and hold
// exactly the model's unacknowledged tail, and no lent byte may have
// changed.
func FuzzSendQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		h := newSendHarness(t)
		for ; len(ops) >= 2; ops = ops[2:] {
			h.step(ops[0], ops[1])
			h.drain()
			h.check()
		}
		h.c.abort(errConnReset, true)
		h.drain()
		h.check()
	})
}
