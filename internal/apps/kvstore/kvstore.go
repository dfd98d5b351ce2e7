// Package kvstore is the repository's Redis stand-in: a single-threaded
// in-memory key-value server speaking RESP2 (the real Redis wire
// protocol) over the netstack socket API, with values stored in a
// ukalloc arena so allocator choice shows up in throughput exactly as
// in the paper's Fig 18.
package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"

	"unikraft/internal/netstack"
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
	data  map[string]value

	// Commands counts processed commands; Errors protocol errors.
	Commands uint64
	Errors   uint64
}

type conn struct {
	tc  *netstack.TCPConn
	buf []byte
	out []byte
}

// New starts the server on port.
func New(stack *netstack.Stack, alloc ukalloc.Allocator, port uint16) (*Server, error) {
	lis, err := stack.ListenTCP(port, 256)
	if err != nil {
		return nil, err
	}
	return &Server{
		stack: stack, alloc: alloc, lis: lis,
		data: map[string]value{},
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

func (s *Server) serveConn(c *conn) bool {
	var tmp [8192]byte
	for {
		n, err := c.tc.Read(tmp[:])
		if n > 0 {
			c.buf = append(c.buf, tmp[:n]...)
		}
		if err == netstack.ErrWouldBlock {
			break
		}
		if err != nil {
			c.tc.Close()
			return false
		}
	}
	// Process as many complete commands as are buffered (pipelining).
	c.out = c.out[:0]
	for {
		args, rest, ok, perr := parseRESP(c.buf)
		if perr != nil {
			s.Errors++
			c.tc.Close()
			return false
		}
		if !ok {
			break
		}
		c.buf = rest
		s.execute(c, args)
	}
	if len(c.out) > 0 {
		c.tc.Write(c.out)
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
	// Redis-equivalent per-command work: dict lookup machinery, SDS
	// handling, event-loop bookkeeping (~250ns; Fig 12's per-request
	// budget). The reply object is allocated from the backend, as Redis
	// allocates client output buffers — this is what exposes allocator
	// behaviour on the GET path in Fig 18.
	s.stack.Machine().Charge(900)
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
		key := string(args[1])
		if old, exists := s.data[key]; exists {
			s.alloc.Free(old.p)
		}
		p, err := s.alloc.Malloc(len(args[2]))
		if err != nil {
			s.errReply(c, "OOM")
			return
		}
		copy(ukalloc.Bytes(s.alloc, p, len(args[2])), args[2])
		s.data[key] = value{p: p, n: len(args[2])}
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
	c.out = append(c.out, msg...)
	c.out = append(c.out, '\r', '\n')
}

// Keys reports stored keys (tests).
func (s *Server) Keys() int { return len(s.data) }

// parseRESP decodes one RESP array-of-bulk-strings command. ok=false
// means incomplete input; err means protocol violation.
func parseRESP(b []byte) (args [][]byte, rest []byte, ok bool, err error) {
	if len(b) == 0 {
		return nil, b, false, nil
	}
	if b[0] != '*' {
		// Inline command (redis-cli compat): single line.
		i := bytes.Index(b, []byte("\r\n"))
		if i < 0 {
			return nil, b, false, nil
		}
		fields := bytes.Fields(b[:i])
		if len(fields) == 0 {
			return nil, nil, false, fmt.Errorf("kvstore: empty inline command")
		}
		return fields, b[i+2:], true, nil
	}
	cur := b[1:]
	n, cur, lineOK := readIntLine(cur)
	if !lineOK {
		return nil, b, false, nil
	}
	if n < 0 || n > 1024 {
		return nil, nil, false, fmt.Errorf("kvstore: bad array length %d", n)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(cur) == 0 {
			return nil, b, false, nil
		}
		if cur[0] != '$' {
			return nil, nil, false, fmt.Errorf("kvstore: expected bulk string")
		}
		var ln int
		ln, cur, lineOK = readIntLine(cur[1:])
		if !lineOK {
			return nil, b, false, nil
		}
		if ln < 0 || ln > 64<<20 {
			return nil, nil, false, fmt.Errorf("kvstore: bad bulk length %d", ln)
		}
		if len(cur) < ln+2 {
			return nil, b, false, nil
		}
		out = append(out, cur[:ln])
		if cur[ln] != '\r' || cur[ln+1] != '\n' {
			return nil, nil, false, fmt.Errorf("kvstore: missing bulk terminator")
		}
		cur = cur[ln+2:]
	}
	return out, cur, true, nil
}

func readIntLine(b []byte) (int, []byte, bool) {
	i := bytes.Index(b, []byte("\r\n"))
	if i < 0 {
		return 0, b, false
	}
	n, err := strconv.Atoi(string(b[:i]))
	if err != nil {
		return 0, b, false
	}
	return n, b[i+2:], true
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
