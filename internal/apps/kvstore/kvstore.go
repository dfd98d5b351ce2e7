// Package kvstore is the repository's Redis stand-in: a single-threaded
// in-memory key-value server speaking RESP2 (the real Redis wire
// protocol) over the netstack socket API, with values stored in a
// ukalloc arena so allocator choice shows up in throughput exactly as
// in the paper's Fig 18.
package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// value locates a stored value in the allocator arena.
type value struct {
	p ukalloc.Ptr
	n int
}

// Server is the RESP key-value server.
type Server struct {
	stack *netstack.Stack
	alloc ukalloc.Allocator
	lis   *netstack.Listener
	conns []*conn
	// data points at each key's value, so that a SET of a stored key
	// updates it in place: looking a key up by string(bytes) allocates
	// nothing, storing under one does.
	data map[string]*value

	// Commands counts processed commands; Errors protocol errors.
	Commands uint64
	Errors   uint64
}

type conn struct {
	tc *netstack.TCPConn
	// buf holds the received bytes not yet executed, at its front; out the
	// replies the socket has not taken yet. Both arrays are reused.
	buf []byte
	out []byte
	// args is the argument vector each command is decoded into.
	args [][]byte
	// quit is set by a protocol error: the connection closes once the
	// replies to the commands before it are out.
	quit bool
}

// Wire limits.
const (
	// readChunk is what every socket Read offers. The socket charges per
	// call and per byte, so the chunk size is part of the simulated cost.
	readChunk = 8192
	// maxLine bounds an inline command and a *n or $n header line, as
	// Redis's inline limit does: no CRLF within it is a protocol error.
	maxLine = 64 << 10
	// maxOut is how much reply a connection holds before it stops
	// executing commands until the socket has taken them.
	maxOut = 64 << 10
)

// New starts the server on port.
func New(stack *netstack.Stack, alloc ukalloc.Allocator, port uint16) (*Server, error) {
	lis, err := stack.ListenTCP(port, 256)
	if err != nil {
		return nil, err
	}
	return &Server{
		stack: stack, alloc: alloc, lis: lis,
		data: map[string]*value{},
	}, nil
}

// Poll runs one event-loop iteration.
func (s *Server) Poll() {
	for {
		tc, ok := s.lis.Accept()
		if !ok {
			break
		}
		s.conns = append(s.conns, &conn{tc: tc})
	}
	live := s.conns[:0]
	for _, c := range s.conns {
		if s.serveConn(c) {
			live = append(live, c)
		}
	}
	s.conns = live
}

// serveConn reads what one connection sent and executes the commands it
// completes; returns false when the connection is finished.
func (s *Server) serveConn(c *conn) bool {
	// Until the socket has taken every reply, nothing more is read, so
	// TCP's window holds the client back.
	if len(c.out) == 0 && !c.quit {
		for {
			c.buf = slices.Grow(c.buf, readChunk)
			n, err := c.tc.Read(c.buf[len(c.buf) : len(c.buf)+readChunk])
			c.buf = c.buf[:len(c.buf)+n]
			if err == netstack.ErrWouldBlock {
				break
			}
			if err != nil {
				c.tc.Close()
				return false
			}
		}
		// Execute the complete commands buffered (pipelining), then move
		// what is left to the front of the buffer.
		rest := c.buf
		for len(c.out) < maxOut {
			args, next, ok, err := parseRESP(rest, c.args)
			c.args = args
			if err != nil {
				s.Errors++
				c.quit, rest = true, nil
				break
			}
			if !ok {
				break
			}
			rest = next
			s.execute(c, args)
		}
		c.buf = c.buf[:copy(c.buf, rest)]
	}
	if len(c.out) > 0 {
		n, err := c.tc.Write(c.out)
		if err != nil && err != netstack.ErrBufferFull {
			c.tc.Close()
			return false
		}
		c.out = c.out[:copy(c.out, c.out[n:])]
	}
	if c.quit && len(c.out) == 0 {
		c.tc.Close()
		return false
	}
	return true
}

// execute runs one command, appending the reply to c.out.
func (s *Server) execute(c *conn, args [][]byte) {
	if len(args) == 0 {
		s.Errors++
		c.out = append(c.out, "-ERR empty command\r\n"...)
		return
	}
	s.Commands++
	// The reply object is allocated from the backend, as Redis
	// allocates client output buffers — this is what exposes allocator
	// behaviour on the GET path in Fig 18.
	s.stack.Machine().Pay(sim.CostRedisCommand, 1)
	if reply, err := s.alloc.Malloc(64); err == nil {
		s.alloc.Free(reply)
	}
	var name [8]byte
	cmd := commandName(&name, args[0])
	switch string(cmd) {
	case "PING":
		c.out = append(c.out, "+PONG\r\n"...)
	case "SET":
		if len(args) != 3 {
			s.errReply(c, "wrong number of arguments for 'set'")
			return
		}
		v, exists := s.data[string(args[1])]
		if exists {
			s.alloc.Free(v.p)
		}
		p, err := s.alloc.Malloc(len(args[2]))
		if err != nil {
			// The old value is freed already: a key left on its block
			// would read allocator metadata and free whatever lands there.
			delete(s.data, string(args[1]))
			s.errReply(c, "OOM")
			return
		}
		copy(ukalloc.Bytes(s.alloc, p, len(args[2])), args[2])
		if !exists {
			v = &value{}
			s.data[string(args[1])] = v
		}
		v.p, v.n = p, len(args[2])
		c.out = append(c.out, "+OK\r\n"...)
	case "GET":
		if len(args) != 2 {
			s.errReply(c, "wrong number of arguments for 'get'")
			return
		}
		v, exists := s.data[string(args[1])]
		if !exists {
			c.out = append(c.out, "$-1\r\n"...)
			return
		}
		b := ukalloc.Bytes(s.alloc, v.p, v.n)
		c.out = append(c.out, '$')
		c.out = strconv.AppendInt(c.out, int64(v.n), 10)
		c.out = append(c.out, '\r', '\n')
		c.out = append(c.out, b...)
		c.out = append(c.out, '\r', '\n')
	case "DEL":
		removed := 0
		for _, k := range args[1:] {
			if v, exists := s.data[string(k)]; exists {
				s.alloc.Free(v.p)
				delete(s.data, string(k))
				removed++
			}
		}
		c.out = append(c.out, ':')
		c.out = strconv.AppendInt(c.out, int64(removed), 10)
		c.out = append(c.out, '\r', '\n')
	case "DBSIZE":
		c.out = append(c.out, ':')
		c.out = strconv.AppendInt(c.out, int64(len(s.data)), 10)
		c.out = append(c.out, '\r', '\n')
	case "FLUSHALL":
		for k, v := range s.data {
			s.alloc.Free(v.p)
			delete(s.data, k)
		}
		c.out = append(c.out, "+OK\r\n"...)
	default:
		s.errReply(c, "unknown command '"+string(cmd)+"'")
	}
}

// commandName upper-cases a command name into buf when it is short
// ASCII — every name the server knows is, FLUSHALL the longest — so
// matching it allocates nothing. Any other name is upper-cased the
// general way, Unicode case folding included.
func commandName(buf *[8]byte, arg []byte) []byte {
	if len(arg) > len(buf) {
		return bytes.ToUpper(arg)
	}
	for i, b := range arg {
		if b >= utf8.RuneSelf {
			return bytes.ToUpper(arg)
		}
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		buf[i] = b
	}
	return buf[:len(arg)]
}

func (s *Server) errReply(c *conn, msg string) {
	s.Errors++
	c.out = append(c.out, "-ERR "...)
	start := len(c.out)
	c.out = append(c.out, msg...)
	// An error reply is one line: a CR or LF from a command name would
	// end it early and frame the rest as another reply.
	for i := start; i < len(c.out); i++ {
		if c.out[i] == '\r' || c.out[i] == '\n' {
			c.out[i] = ' '
		}
	}
	c.out = append(c.out, '\r', '\n')
}

// Keys reports stored keys (tests).
func (s *Server) Keys() int { return len(s.data) }

var crlf = []byte("\r\n")

// parseRESP decodes one command at the head of b — a RESP array of bulk
// strings, or an inline command line — appending its arguments, which
// alias b, to args[:0]. ok=false means incomplete input; err means a
// protocol violation. The returned vector keeps args' array for the next
// command, and holds the arguments only when ok.
func parseRESP(b []byte, args [][]byte) (out [][]byte, rest []byte, ok bool, err error) {
	out = args[:0]
	if len(b) == 0 {
		return out, b, false, nil
	}
	if b[0] != '*' {
		// Inline command (redis-cli compat): single line.
		line, next, ok, err := readLine(b)
		if !ok {
			return out, b, false, err
		}
		out = append(out, bytes.Fields(line)...)
		if len(out) == 0 {
			return out, nil, false, fmt.Errorf("kvstore: empty inline command")
		}
		return out, next, true, nil
	}
	n, cur, ok, err := readIntLine(b[1:])
	if !ok {
		return out, b, false, err
	}
	if n < 0 || n > 1024 {
		return out, nil, false, fmt.Errorf("kvstore: bad array length %d", n)
	}
	for i := 0; i < n; i++ {
		if len(cur) == 0 {
			return out, b, false, nil
		}
		if cur[0] != '$' {
			return out, nil, false, fmt.Errorf("kvstore: expected bulk string")
		}
		var ln int
		if ln, cur, ok, err = readIntLine(cur[1:]); !ok {
			return out, b, false, err
		}
		if ln < 0 || ln > 64<<20 {
			return out, nil, false, fmt.Errorf("kvstore: bad bulk length %d", ln)
		}
		if len(cur) < ln+2 {
			return out, b, false, nil
		}
		if cur[ln] != '\r' || cur[ln+1] != '\n' {
			return out, nil, false, fmt.Errorf("kvstore: missing bulk terminator")
		}
		out = append(out, cur[:ln])
		cur = cur[ln+2:]
	}
	return out, cur, true, nil
}

// readLine splits the line at the head of b from what follows its CRLF.
// ok=false means the CRLF has not arrived; err means it cannot arrive
// within maxLine bytes.
func readLine(b []byte) (line, rest []byte, ok bool, err error) {
	i := bytes.Index(b[:min(len(b), maxLine+2)], crlf)
	if i < 0 {
		if len(b) > maxLine+1 {
			return nil, nil, false, fmt.Errorf("kvstore: no CRLF within %d bytes", maxLine)
		}
		return nil, b, false, nil
	}
	return b[:i], b[i+2:], true, nil
}

// readIntLine reads a line holding a decimal length.
func readIntLine(b []byte) (n int, rest []byte, ok bool, err error) {
	line, rest, ok, err := readLine(b)
	if !ok {
		return 0, b, false, err
	}
	if n, err = strconv.Atoi(string(line)); err != nil {
		return 0, nil, false, fmt.Errorf("kvstore: bad length %q", line)
	}
	return n, rest, true, nil
}

// Bench is a redis-benchmark-style client: C connections, pipeline
// depth P, alternating GET/SET per the paper's parameters (30 conns,
// 100k requests, pipelining 16).
type Bench struct {
	stack *netstack.Stack
	conns []*benchConn
	// Replies counts responses parsed.
	Replies uint64
	setMode bool
	// seq is shared across connections so the keyspace is walked
	// uniformly (as redis-benchmark's random keyspace does): re-SETs of
	// a key are ~keyspace commands apart, which is what exercises
	// allocator behaviour on long-lived values (Fig 18).
	seq int
}

type benchConn struct {
	tc      *netstack.TCPConn
	pending int
	buf     []byte
}

// NewBench connects conns benchmark connections from ephemeral ports.
func NewBench(stack *netstack.Stack, addr netstack.AddrPort, conns int, set bool) *Bench {
	return NewBenchPorts(stack, addr, make([]uint16, conns), set)
}

// NewBenchPorts connects one benchmark connection per entry of ports,
// each pinned to that source port (0 = ephemeral) so its RSS hash — and
// therefore the server queue/vCPU serving it — is chosen by the caller.
func NewBenchPorts(stack *netstack.Stack, addr netstack.AddrPort, ports []uint16, set bool) *Bench {
	b := &Bench{stack: stack, setMode: set}
	for _, p := range ports {
		tc, err := stack.ConnectTCPFrom(p, addr)
		if err == nil {
			b.conns = append(b.conns, &benchConn{tc: tc})
		}
	}
	return b
}

// Ready reports all connections established.
func (b *Bench) Ready() bool {
	for _, c := range b.conns {
		if !c.tc.Established() {
			return false
		}
	}
	return len(b.conns) > 0
}

// Fire tops every connection up to `depth` outstanding commands. The
// whole pipeline batch is coalesced into a single write, exactly as
// redis-benchmark -P submits pipelined commands.
func (b *Bench) Fire(depth int) {
	for _, c := range b.conns {
		var batch []byte
		queued := 0
		for c.pending+queued < depth {
			key := fmt.Sprintf("key:%06d", (b.seq+queued)%1000)
			if b.setMode {
				val := "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx" // 32B value, redis-benchmark-ish
				batch = append(batch, fmt.Sprintf("*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n",
					len(key), key, len(val), val)...)
			} else {
				batch = append(batch, fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(key), key)...)
			}
			queued++
		}
		if queued == 0 {
			continue
		}
		if _, err := c.tc.Write(batch); err != nil {
			continue
		}
		b.seq += queued
		c.pending += queued
	}
}

// Collect consumes replies; returns how many completed this call.
func (b *Bench) Collect() int {
	done := 0
	var tmp [8192]byte
	for _, c := range b.conns {
		for {
			n, err := c.tc.Read(tmp[:])
			if n > 0 {
				c.buf = append(c.buf, tmp[:n]...)
			}
			if err != nil || n == 0 {
				break
			}
		}
		for {
			adv, complete := replyLen(c.buf)
			if !complete {
				break
			}
			c.buf = c.buf[adv:]
			c.pending--
			b.Replies++
			done++
		}
	}
	return done
}

// replyLen returns the byte length of one complete RESP reply at the
// head of b, if present.
func replyLen(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	i := bytes.Index(b, []byte("\r\n"))
	if i < 0 {
		return 0, false
	}
	switch b[0] {
	case '+', '-', ':':
		return i + 2, true
	case '$':
		n, err := strconv.Atoi(string(b[1:i]))
		if err != nil {
			return 0, false
		}
		if n < 0 {
			return i + 2, true // null bulk
		}
		total := i + 2 + n + 2
		return total, len(b) >= total
	}
	return 0, false
}
