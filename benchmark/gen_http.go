package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
)

// sum64 is the body checksum responses are verified against: eight
// bytes at a time, so checking 64 KB bodies stays a small part of the
// client's host cost.
func sum64(b []byte) uint64 {
	s := uint64(len(b)) * 0x9E3779B97F4A7C15
	for len(b) >= 8 {
		s = (s ^ binary.LittleEndian.Uint64(b)) * 0x100000001B3
		b = b[8:]
	}
	for _, c := range b {
		s = (s ^ uint64(c)) * 0x100000001B3
	}
	return s
}

// httpTarget is one path of the site as the client expects it.
type httpTarget struct {
	path   string
	status int // 200 or 404
	size   int
	sum    uint64
}

// latRec collects per-request latencies in server cycles: the time on
// the server's clock between sending a request and the poll round that
// delivered its complete reply. In these lock-step worlds the server is
// the only resource whose time passes while a request is outstanding.
type latRec struct {
	cpu  *sim.CPU
	vals []uint32
}

func (l *latRec) since(stamp uint64) { l.vals = append(l.vals, uint32(l.cpu.Cycles()-stamp)) }

// httpGen is the benchmark's wrk: N keep-alive connections, one
// request outstanding on each, every response checked for status,
// Content-Length and body checksum.
type httpGen struct {
	conns     []*httpConn
	targets   []httpTarget
	lat       latRec
	completed int
	failures  int
}

type httpConn struct {
	tc      *netstack.TCPConn
	reqs    [][]byte // rendered request per target, with this connection's headers
	plan    []uint16 // target index of each request this connection will send
	next    int
	pending int    // 0 or 1
	want    uint16 // target of the outstanding request
	stamp   uint64
	buf     []byte
}

// newHTTPGen opens conns connections and deals the stream — the target
// index of every request, in send order — round-robin onto them. The
// digest covers the stream together with each connection's seeded
// header.
func newHTTPGen(stack *netstack.Stack, srv netstack.AddrPort, srvCPU *sim.CPU, conns int,
	targets []httpTarget, r *rng, stream []int, digest *fnv64) (*httpGen, error) {
	g := &httpGen{targets: targets, lat: latRec{cpu: srvCPU, vals: make([]uint32, 0, len(stream))}}
	for i := 0; i < conns; i++ {
		tc, err := stack.ConnectTCP(srv)
		if err != nil {
			return nil, fmt.Errorf("http client: connect %d: %w", i, err)
		}
		// Real clients differ in their headers; here the difference is
		// the seed's, so two seeds offer different bytes.
		agent := make([]byte, r.between(8, 40))
		for j := range agent {
			agent[j] = byte('a' + r.intn(26))
		}
		digest.bytes(agent)
		c := &httpConn{tc: tc}
		for _, t := range targets {
			c.reqs = append(c.reqs, []byte("GET "+t.path+" HTTP/1.1\r\nHost: server\r\nUser-Agent: "+string(agent)+"\r\n\r\n"))
		}
		g.conns = append(g.conns, c)
	}
	for i, t := range stream {
		digest.u64(uint64(t))
		c := g.conns[i%conns]
		c.plan = append(c.plan, uint16(t))
	}
	return g, nil
}

func (g *httpGen) ready() bool {
	for _, c := range g.conns {
		if !c.tc.Established() {
			return false
		}
	}
	return true
}

// fire sends the next request on every idle connection that has one.
func (g *httpGen) fire() {
	for _, c := range g.conns {
		if c.pending > 0 || c.next >= len(c.plan) {
			continue
		}
		t := c.plan[c.next]
		if _, err := c.tc.Write(c.reqs[t]); err != nil {
			continue
		}
		c.next++
		c.pending, c.want, c.stamp = 1, t, g.lat.cpu.Cycles()
	}
}

// collect reads what arrived and completes every fully received
// response; it returns how many completed.
func (g *httpGen) collect() int {
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
		for c.pending > 0 {
			head := bytes.Index(c.buf, []byte("\r\n\r\n"))
			if head < 0 {
				break
			}
			status, length, ok := parseHTTPHead(c.buf[:head])
			total := head + 4 + length
			if ok && len(c.buf) < total {
				break // body still arriving
			}
			want := g.targets[c.want]
			if !ok || status != want.status || length != want.size ||
				(length > 0 && sum64(c.buf[head+4:total]) != want.sum) {
				g.failures++
			}
			if !ok {
				total = len(c.buf) // framing lost: drop what we hold
			}
			c.buf = c.buf[:copy(c.buf, c.buf[total:])]
			c.pending = 0
			g.lat.since(c.stamp)
			g.completed++
			done++
		}
	}
	return done
}

// parseHTTPHead extracts the status code and Content-Length.
func parseHTTPHead(head []byte) (status, length int, ok bool) {
	if len(head) < 12 || !bytes.HasPrefix(head, []byte("HTTP/1.1 ")) {
		return 0, 0, false
	}
	for _, ch := range head[9:12] {
		if ch < '0' || ch > '9' {
			return 0, 0, false
		}
		status = status*10 + int(ch-'0')
	}
	const key = "Content-Length: "
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return status, 0, false
	}
	digits := 0
	for _, ch := range head[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		length = length*10 + int(ch-'0')
		digits++
	}
	return status, length, digits > 0
}
