package main

import (
	"bytes"
	"fmt"
	"strconv"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
)

// respGen is the benchmark's redis-benchmark: N connections, each
// keeping `depth` commands in flight as one pipelined write, GETs and
// SETs over keys the connection owns. Because a connection's commands
// are served in order, the client knows what every GET must return —
// the value it last SET on that key — and checks it (read your
// writes).
type respGen struct {
	conns     []*respConn
	depth     int
	pool      []byte // value bytes are slices of this seeded pool
	lat       latRec
	completed int
	failures  int
}

type respOp struct {
	key uint16 // index into the connection's shard
	set bool
}

type respConn struct {
	id      int
	tc      *netstack.TCPConn
	main    []respOp // the timed stream
	plan    []respOp // what fire sends from: the preload, then main
	next    int
	ver     []uint16  // version last SET per key of the shard
	expect  []respExp // outstanding replies, oldest first
	head    int
	stamp   []uint64
	buf     []byte
	scratch []byte
}

// respExp is what one outstanding command must be answered with.
type respExp struct {
	set bool
	key uint16
	ver uint16
}

const (
	respValueMin  = 32
	respValueMax  = 512
	respValuePool = 1 << 16
)

// value returns the bytes version ver of a key holds: a slice of the
// seeded pool whose offset and length derive from (connection, key,
// version), so neither side has to store values to compare them.
func (g *respGen) value(conn int, key, ver uint16) []byte {
	x := uint64(conn)<<32 | uint64(key)<<16 | uint64(ver)
	h := splitmix(&x)
	n := respValueMin + int(h%uint64(respValueMax-respValueMin+1))
	off := int((h >> 20) % uint64(respValuePool-respValueMax))
	return g.pool[off : off+n]
}

func newRESPGen(stack *netstack.Stack, srv netstack.AddrPort, srvCPU *sim.CPU,
	conns, depth, keysPerConn, n int, setShare float64, seed uint64, digest *fnv64) (*respGen, error) {
	g := &respGen{depth: depth, pool: make([]byte, respValuePool),
		lat: latRec{cpu: srvCPU, vals: make([]uint32, 0, n)}}
	pr := newRNG(seed, "resp.values")
	for i := range g.pool {
		g.pool[i] = byte('!' + pr.intn(90))
	}
	or := newRNG(seed, "resp.ops")
	z := newZipf(keysPerConn, 0.99)
	for i := 0; i < conns; i++ {
		tc, err := stack.ConnectTCP(srv)
		if err != nil {
			return nil, fmt.Errorf("resp client: connect %d: %w", i, err)
		}
		g.conns = append(g.conns, &respConn{id: i, tc: tc, ver: make([]uint16, keysPerConn)})
	}
	// Deal whole pipeline batches round-robin so every connection stays
	// at full depth until the stream runs out.
	for i := 0; i < n; i++ {
		c := g.conns[(i/depth)%conns]
		op := respOp{key: uint16(z.draw(or)), set: or.float() < setShare}
		c.main = append(c.main, op)
		v := uint64(op.key)
		if op.set {
			v |= 1 << 16
		}
		digest.u64(v)
	}
	return g, nil
}

func (g *respGen) ready() bool {
	for _, c := range g.conns {
		if !c.tc.Established() {
			return false
		}
	}
	return true
}

func (c *respConn) keyName(dst []byte, key uint16) []byte {
	dst = append(dst, "k:"...)
	dst = strconv.AppendInt(dst, int64(c.id), 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(key), 10)
}

func (g *respGen) appendCmd(dst []byte, c *respConn, op respOp) []byte {
	var kb [24]byte
	key := c.keyName(kb[:0], op.key)
	if !op.set {
		dst = append(dst, "*2\r\n$3\r\nGET\r\n$"...)
		dst = strconv.AppendInt(dst, int64(len(key)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, key...)
		return append(dst, "\r\n"...)
	}
	val := g.value(c.id, op.key, c.ver[op.key]+1)
	dst = append(dst, "*3\r\n$3\r\nSET\r\n$"...)
	dst = strconv.AppendInt(dst, int64(len(key)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, key...)
	dst = append(dst, "\r\n$"...)
	dst = strconv.AppendInt(dst, int64(len(val)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, val...)
	return append(dst, "\r\n"...)
}

// planPreload makes the next stream one SET per key of every shard
// (version 1), so that the timed GETs hit; it runs during set-up.
func (g *respGen) planPreload() {
	for _, c := range g.conns {
		c.plan, c.next = make([]respOp, len(c.ver)), 0
		for k := range c.plan {
			c.plan[k] = respOp{key: uint16(k), set: true}
		}
	}
}

// planMain switches to the timed stream.
func (g *respGen) planMain() {
	for _, c := range g.conns {
		c.plan, c.next = c.main, 0
	}
	g.completed = 0
}

// fire tops every connection up to depth outstanding commands, the
// whole batch in one write as redis-benchmark -P does.
func (g *respGen) fire() {
	now := g.lat.cpu.Cycles()
	for _, c := range g.conns {
		out := len(c.expect) - c.head
		if out >= g.depth || c.next >= len(c.plan) {
			continue
		}
		batch := c.scratch[:0]
		first := c.next
		for out < g.depth && c.next < len(c.plan) {
			op := c.plan[c.next]
			batch = g.appendCmd(batch, c, op)
			if op.set {
				c.ver[op.key]++
			}
			c.expect = append(c.expect, respExp{set: op.set, key: op.key, ver: c.ver[op.key]})
			c.stamp = append(c.stamp, now)
			c.next++
			out++
		}
		c.scratch = batch
		if _, err := c.tc.Write(batch); err != nil {
			// Nothing was sent: roll the plan back and try next round.
			for i := c.next - 1; i >= first; i-- {
				if c.plan[i].set {
					c.ver[c.plan[i].key]--
				}
			}
			c.expect = c.expect[:len(c.expect)-(c.next-first)]
			c.stamp = c.stamp[:len(c.stamp)-(c.next-first)]
			c.next = first
		}
	}
}

// collect parses replies in order and checks each against what the
// connection's own history says it must be.
func (g *respGen) collect(record bool) int {
	done := 0
	var tmp [16384]byte
	for _, c := range g.conns {
		for {
			n, err := c.tc.Read(tmp[:])
			if n > 0 {
				c.buf = append(c.buf, tmp[:n]...)
			}
			if err != nil || n == 0 {
				break
			}
		}
		off := 0
		for c.head < len(c.expect) {
			adv, body, ok := respReply(c.buf[off:])
			if !ok {
				break
			}
			e := c.expect[c.head]
			switch {
			case e.set:
				if !bytes.Equal(c.buf[off:off+adv], []byte("+OK\r\n")) {
					g.failures++
				}
			case e.ver == 0: // never written: must be a null bulk
				if body != nil {
					g.failures++
				}
			default:
				if !bytes.Equal(body, g.value(c.id, e.key, e.ver)) {
					g.failures++
				}
			}
			if record {
				g.lat.since(c.stamp[c.head])
			}
			off += adv
			c.head++
			g.completed++
			done++
		}
		c.buf = c.buf[:copy(c.buf, c.buf[off:])]
		if c.head == len(c.expect) {
			c.expect, c.stamp, c.head = c.expect[:0], c.stamp[:0], 0
		}
	}
	return done
}

// respReply returns the length of one complete reply at the head of b
// and, for a bulk string, its payload (nil for the null bulk).
func respReply(b []byte) (adv int, body []byte, ok bool) {
	i := bytes.Index(b, []byte("\r\n"))
	if i < 0 {
		return 0, nil, false
	}
	switch b[0] {
	case '+', '-', ':':
		return i + 2, nil, true
	case '$':
		n, err := strconv.Atoi(string(b[1:i]))
		if err != nil {
			return i + 2, nil, true // malformed: consumed, and will not match
		}
		if n < 0 {
			return i + 2, nil, true
		}
		total := i + 2 + n + 2
		if len(b) < total {
			return 0, nil, false
		}
		return total, b[i+2 : i+2+n], true
	}
	return i + 2, nil, true
}
