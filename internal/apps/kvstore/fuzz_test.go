package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"unikraft/internal/closedloop"
)

// fuzzHeap is the fuzz server's heap: small enough that a few SETs run
// it out of memory.
const fuzzHeap = 64 << 10

// fuzzWorld is FuzzServeRESP's world, built on first use and kept for
// the life of the fuzz worker; an input is one connection.
var fuzzWorld struct {
	w     *closedloop.World
	srv   *Server
	free0 int
}

// Verdicts of frameOne.
const (
	incomplete = iota
	complete
	violation
)

// modelLine is the line at b's head: its bytes and the length up to and
// including its CRLF. A line may hold at most maxLine bytes.
func modelLine(b []byte) (line []byte, n, verdict int) {
	i := bytes.Index(b, crlf)
	switch {
	case i > maxLine || i < 0 && len(b) > maxLine+1:
		return nil, 0, violation
	case i < 0:
		return nil, 0, incomplete
	}
	return b[:i], i + 2, complete
}

// modelLength is the decimal length on the line at b's head.
func modelLength(b []byte) (length, n, verdict int) {
	line, n, verdict := modelLine(b)
	if verdict != complete {
		return 0, 0, verdict
	}
	length, err := strconv.Atoi(string(line))
	if err != nil {
		return 0, 0, violation
	}
	return length, n, complete
}

// frameOne is the model of RESP framing for the command at b's head: its
// arguments and length, if complete.
func frameOne(b []byte) (args [][]byte, n, verdict int) {
	if b[0] != '*' {
		line, n, v := modelLine(b)
		args = bytes.Fields(line)
		if v == complete && len(args) == 0 {
			v = violation
		}
		return args, n, v
	}
	argc, n, v := modelLength(b[1:])
	switch {
	case v != complete:
		return nil, 0, v
	case argc < 0 || argc > 1024:
		return nil, 0, violation
	}
	n++ // the '*'
	for range argc {
		if n == len(b) {
			return nil, 0, incomplete
		}
		if b[n] != '$' {
			return nil, 0, violation
		}
		size, hdr, v := modelLength(b[n+1:])
		switch {
		case v != complete:
			return nil, 0, v
		case size < 0 || size > 64<<20:
			return nil, 0, violation
		}
		at := n + 1 + hdr
		switch {
		case len(b) < at+size+2:
			return nil, 0, incomplete
		case b[at+size] != '\r' || b[at+size+1] != '\n':
			return nil, 0, violation
		}
		args = append(args, b[at:at+size])
		n = at + size + 2
	}
	return args, n, complete
}

// frame splits a client stream into the commands it completes and tells
// whether a protocol violation follows them.
func frame(b []byte) (cmds [][][]byte, bad bool) {
	for len(b) > 0 {
		args, n, v := frameOne(b)
		if v != complete {
			return cmds, v == violation
		}
		cmds, b = append(cmds, args), b[n:]
	}
	return cmds, false
}

// appendOp appends the valid command op and arg select: SETs of up to
// 16 KB, SETs no heap of fuzzHeap can hold, GETs as arrays and inline,
// DEL, DBSIZE, FLUSHALL and PING, over eight keys.
func appendOp(b []byte, op, arg byte) []byte {
	key := fmt.Sprintf("k%d", op>>3&7)
	set := func(n int) []byte {
		val := bytes.Repeat([]byte{'a' + arg%26}, n)
		return fmt.Appendf(b, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(key), key, n, val)
	}
	switch op & 7 {
	case 0:
		return set(int(arg) * 64)
	case 1:
		return set(fuzzHeap + int(arg))
	case 2:
		return fmt.Appendf(b, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(key), key)
	case 3:
		return fmt.Appendf(b, "get %s\r\n", key)
	case 4:
		return fmt.Appendf(b, "*3\r\n$3\r\nDEL\r\n$%d\r\n%s\r\n$2\r\nk%d\r\n", len(key), key, arg&7)
	case 5:
		return append(b, "*1\r\n$6\r\nDBSIZE\r\n"...)
	case 6:
		return append(b, "*1\r\n$8\r\nFLUSHALL\r\n"...)
	}
	return append(b, "PING\r\n"...)
}

// model is the store as the client sees it.
type model map[string]string

// reply checks got, the server's reply to args, against m — which it
// updates — and returns the reply's length. A SET may run out of memory;
// m learns which way it went from the reply.
func (m model) reply(t *testing.T, k int, args [][]byte, got []byte) int {
	t.Helper()
	n, whole := replyLen(got)
	if !whole {
		t.Fatalf("command %d %.40q: no whole reply in %.80q", k, args, got)
	}
	if got[0] == '$' && !bytes.HasSuffix(got[:n], crlf) {
		t.Fatalf("command %d %.40q: bulk reply %.80q has no terminator", k, args, got[:n])
	}
	errReply := func(msg string) string { return "-ERR " + msg + "\r\n" }
	var want string
	name := ""
	if len(args) > 0 {
		name = string(bytes.ToUpper(args[0]))
	}
	switch {
	case len(args) == 0:
		want = errReply("empty command")
	case name == "PING":
		want = "+PONG\r\n"
	case name == "SET" && len(args) != 3:
		want = errReply("wrong number of arguments for 'set'")
	case name == "SET":
		want = "+OK\r\n"
		if string(got[:n]) == errReply("OOM") {
			want = errReply("OOM")
			delete(m, string(args[1]))
		} else {
			m[string(args[1])] = string(args[2])
		}
	case name == "GET" && len(args) != 2:
		want = errReply("wrong number of arguments for 'get'")
	case name == "GET":
		want = "$-1\r\n"
		if v, ok := m[string(args[1])]; ok {
			want = fmt.Sprintf("$%d\r\n%s\r\n", len(v), v)
		}
	case name == "DEL":
		removed := 0
		for _, key := range args[1:] {
			if _, ok := m[string(key)]; ok {
				delete(m, string(key))
				removed++
			}
		}
		want = fmt.Sprintf(":%d\r\n", removed)
	case name == "DBSIZE":
		want = fmt.Sprintf(":%d\r\n", len(m))
	case name == "FLUSHALL":
		clear(m)
		want = "+OK\r\n"
	default:
		msg := []byte("unknown command '" + name + "'")
		for i, c := range msg {
			if c == '\r' || c == '\n' {
				msg[i] = ' '
			}
		}
		want = errReply(string(msg))
	}
	if string(got[:n]) != want {
		t.Fatalf("command %d %.40q: replied %.80q, want %.80q", k, args, got[:n], want)
	}
	return n
}

// FuzzServeRESP writes arbitrary bytes, interleaved with valid commands
// the input picks, down one connection of a kvstore server, in writes of
// a size the input picks too, the way a hostile peer would. Nothing may
// panic; against a model of RESP framing and of the store, every command
// the stream completes gets exactly one reply, in order, and the one a
// map of the keys predicts — a SET may run out of the small heap, which
// then drops the key; a protocol violation, an over-long line included,
// closes the connection with nothing after it answered; and a FLUSHALL
// afterwards gives the heap back every byte.
func FuzzServeRESP(f *testing.F) {
	const get = "*2\r\n$3\r\nGET\r\n$2\r\nk0\r\n"
	for _, seed := range []struct {
		raw, ops string
		size     uint16
	}{
		{get + "PING\r\n*1\r\n$4\r\nping\r\n", "\x00\x40\x02\x00\x03\x00\x05\x00\x06\x00\x02\x00", 4096},
		// A SET that runs out of memory after freeing the key's old value,
		// then a SET of another key, reads and a DEL of the first.
		{"", "\x00\x01\x01\x00\x02\x00\x08\x01\x02\x00\x04\x00\x0a\x00\x06\x00", 1500},
		// Lines that never end: inline, and a bulk length.
		{"PING\r\n" + string(bytes.Repeat([]byte("a"), 70<<10)), "", 4096},
		{"*1\r\n$" + string(bytes.Repeat([]byte("7"), 70<<10)), "\x07\x00", 4096},
		{"*2\r\n$3\r\nGET\r\n$2\r\nk0\r\nGETxx\r\n*1\r\n$3\r\nGETxx", "\x02\x00", 7},
		{"*a\r\n", "\x07\x00", 1},
		{"*0\r\n \r\n", "", 3},
		{"*1\r\n$5\r\nA\r\nB\r\n\r\n*1\r\n$2\r\nxy\r\n", "\x07\x00", 64},
		{"SET k0 " + string(bytes.Repeat([]byte("v"), 1000)) + "\r\nget k0\r\n", "", 100},
	} {
		f.Add([]byte(seed.raw), []byte(seed.ops), seed.size)
	}

	f.Fuzz(func(t *testing.T, raw, ops []byte, size uint16) {
		if len(raw) > 128<<10 || len(ops) > 64 {
			t.Skip("longer than any limit needs")
		}
		if fuzzWorld.w == nil {
			fuzzWorld.w, fuzzWorld.srv = newWorld(t, fuzzHeap)
			fuzzWorld.free0 = fuzzWorld.srv.alloc.Stats().FreeBytes
		}
		w, srv := fuzzWorld.w, fuzzWorld.srv

		var stream []byte
		pieces := len(ops)/2 + 1
		for i := range pieces {
			stream = append(stream, raw[len(raw)*i/pieces:len(raw)*(i+1)/pieces]...)
			if 2*i+1 < len(ops) {
				stream = appendOp(stream, ops[2*i], ops[2*i+1])
			}
		}
		c := dial(t, w)
		c.send(t, stream, max(1+int(size)%4096, len(stream)/2000))

		cmds, bad := frame(stream)
		got, m := c.got, model{}
		for k, args := range cmds {
			if len(got) == 0 {
				t.Fatalf("%d of %d commands answered (connection closed: %v)", k, len(cmds), c.err)
			}
			got = got[m.reply(t, k, args, got):]
		}
		if len(got) > 0 {
			t.Fatalf("%d commands answered, then still %.80q", len(cmds), got)
		}
		if bad != (c.err != nil) {
			t.Fatalf("protocol violation: %v; the server closed the connection: %v", bad, c.err)
		}

		// Hang up, and let both ends' TIME_WAIT (1 s at 3.6 GHz) run out,
		// so the next input finds the connection tables empty.
		c.conn.Close()
		w.Pump(c)
		w.Client.Machine().Charge(4_000_000_000)
		w.Shards[0].Machine().Charge(4_000_000_000)
		w.Pump(c)
		if len(srv.conns) != 0 {
			t.Fatalf("%d connections left open on the server", len(srv.conns))
		}
		srv.execute(&conn{}, [][]byte{[]byte("FLUSHALL")})
		if free := srv.alloc.Stats().FreeBytes; free != fuzzWorld.free0 {
			t.Fatalf("after FLUSHALL %d bytes free, %d after Init", free, fuzzWorld.free0)
		}
	})
}
