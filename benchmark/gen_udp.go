package main

import (
	"bytes"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
)

// udpGen is the client of the specialised UDP key-value store: one
// socket, a burst of datagrams outstanding, every reply checked. The
// protocol carries no request id, so replies are matched in order; the
// path is lossless and in-order by construction (one ring each way).
type udpGen struct {
	conn      *netstack.UDPConn
	dst       netstack.AddrPort
	pool      []byte
	ver       []uint16
	plan      []udpOp
	bursts    []int // seeded burst sizes; the plan is sent burst by burst
	next      int
	burst     int
	expect    []udpExp // outstanding replies, oldest at head
	head      int
	stamp     uint64
	lat       latRec
	completed int
	failures  int
	scratch   []byte
}

type udpOp struct {
	key uint16
	set bool
}

type udpExp struct {
	set bool
	key uint16
	ver uint16
}

const (
	udpValueMin  = 8
	udpValueMax  = 64
	udpValuePool = 1 << 14
)

func (g *udpGen) value(key, ver uint16) []byte {
	x := uint64(key)<<16 | uint64(ver)
	h := splitmix(&x)
	n := udpValueMin + int(h%uint64(udpValueMax-udpValueMin+1))
	off := int((h >> 20) % uint64(udpValuePool-udpValueMax))
	return g.pool[off : off+n]
}

// newUDPGen plans n requests over keys keys, setShare of them SETs, in
// bursts of burst-8..burst+8 datagrams.
func newUDPGen(stack *netstack.Stack, dst netstack.AddrPort, srvCPU *sim.CPU,
	keys, n, burst int, setShare float64, seed uint64, digest *fnv64) (*udpGen, error) {
	conn, err := stack.BindUDP(0)
	if err != nil {
		return nil, err
	}
	g := &udpGen{conn: conn, dst: dst, pool: make([]byte, udpValuePool), ver: make([]uint16, keys),
		lat: latRec{cpu: srvCPU, vals: make([]uint32, 0, n)}}
	pr := newRNG(seed, "udp.values")
	for i := range g.pool {
		g.pool[i] = byte('!' + pr.intn(90))
	}
	or := newRNG(seed, "udp.ops")
	for i := 0; i < n; i++ {
		op := udpOp{key: uint16(or.intn(keys)), set: or.float() < setShare}
		g.plan = append(g.plan, op)
		v := uint64(op.key)
		if op.set {
			v |= 1 << 16
		}
		digest.u64(v)
	}
	for left := n; left > 0; {
		b := or.between(burst-8, burst+8)
		if b > left {
			b = left
		}
		g.bursts = append(g.bursts, b)
		digest.u64(uint64(b))
		left -= b
	}
	return g, nil
}

func (g *udpGen) keyName(dst []byte, key uint16) []byte {
	return append(dst, 'k', byte('a'+key>>8&15), byte('a'+key>>4&15), byte('a'+key&15))
}

func (g *udpGen) send(op udpOp) {
	req := g.scratch[:0]
	if op.set {
		g.ver[op.key]++
		req = g.keyName(append(req, 'S'), op.key)
		req = append(append(req, 0), g.value(op.key, g.ver[op.key])...)
	} else {
		req = g.keyName(append(req, 'G'), op.key)
	}
	g.scratch = req
	if err := g.conn.SendTo(g.dst, req); err != nil {
		g.failures++
		return
	}
	g.expect = append(g.expect, udpExp{set: op.set, key: op.key, ver: g.ver[op.key]})
}

// preload SETs every key once in bursts of 32; the caller pumps after
// each call until it returns false.
func (g *udpGen) preload(from int) (next int) {
	for k := from; k < len(g.ver) && k < from+32; k++ {
		g.send(udpOp{key: uint16(k), set: true})
		next = k + 1
	}
	return next
}

// fire sends the next burst once the previous one is fully answered.
func (g *udpGen) fire() {
	if g.head < len(g.expect) || g.burst >= len(g.bursts) {
		return
	}
	g.stamp = g.lat.cpu.Cycles()
	for i := 0; i < g.bursts[g.burst]; i++ {
		g.send(g.plan[g.next])
		g.next++
	}
	g.burst++
}

func (g *udpGen) collect(record bool) int {
	done := 0
	for {
		d, ok := g.conn.RecvFrom()
		if !ok {
			break
		}
		if g.head == len(g.expect) {
			g.failures++ // a reply nobody asked for
			continue
		}
		e := g.expect[g.head]
		g.head++
		switch {
		case e.set:
			if !bytes.Equal(d.Data, []byte{'+'}) {
				g.failures++
			}
		default:
			if len(d.Data) < 1 || d.Data[0] != 'V' || !bytes.Equal(d.Data[1:], g.value(e.key, e.ver)) {
				g.failures++
			}
		}
		if record {
			g.lat.since(g.stamp)
		}
		g.completed++
		done++
	}
	if g.head == len(g.expect) {
		g.expect, g.head = g.expect[:0], 0
	}
	return done
}
