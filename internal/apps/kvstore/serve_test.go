package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// newWorld serves a kvstore over a heapBytes TLSF heap on a one-core
// closed-loop world.
func newWorld(t testing.TB, heapBytes int) (*closedloop.World, *Server) {
	t.Helper()
	w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: 1, Alloc: "tlsf"})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := ukalloc.NewInitialized("tlsf", w.Shards[0].Machine(), heapBytes)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(w.Shards[0], heap, 6379)
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	return w, srv
}

// client is one connection to the server, keeping every reply byte; it
// is the world's load generator.
type client struct {
	w    *closedloop.World
	conn *netstack.TCPConn
	got  []byte
	err  error // how the server ended the connection, if it did
}

func dial(t testing.TB, w *closedloop.World) *client {
	t.Helper()
	conn, err := w.Client.ConnectTCP(closedloop.ServerAddr(6379))
	if err != nil {
		t.Fatal(err)
	}
	c := &client{w: w, conn: conn}
	if err := w.Connect(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *client) Ready() bool { return c.conn.Established() }
func (c *client) Fire(int)    {}
func (c *client) Collect() int {
	var buf [4096]byte
	n, err := c.conn.Read(buf[:])
	if err != nil && err != netstack.ErrWouldBlock {
		c.err = err
	}
	c.got = append(c.got, buf[:n]...)
	return n
}

// send writes data in pieces of at most size bytes, pumping the world
// after each, until all is written or the server has hung up. It fails
// if the server stops taking bytes on a live connection.
func (c *client) send(t testing.TB, data []byte, size int) {
	t.Helper()
	for len(data) > 0 && c.err == nil {
		n, err := c.conn.Write(data[:min(size, len(data))])
		if err != nil && err != netstack.ErrBufferFull {
			return // the server hung up first
		}
		data = data[n:]
		if c.w.Pump(c) == 0 && n == 0 && c.err == nil {
			t.Fatalf("server stopped reading with %d bytes left to send", len(data))
		}
	}
	c.w.Pump(c)
}

// TestOverlongLineCloses: a line that brings no CRLF within maxLine bytes
// — an inline command, or the length line of a bulk string — is a
// protocol error: the connection closes instead of buffering it forever.
func TestOverlongLineCloses(t *testing.T) {
	for name, stream := range map[string][]byte{
		"inline":      bytes.Repeat([]byte("a"), 1<<20),
		"bulk length": append([]byte("*1\r\n$"), bytes.Repeat([]byte("7"), 100<<10)...),
	} {
		w, srv := newWorld(t, 1<<20)
		c := dial(t, w)
		c.send(t, []byte("PING\r\n"), 4096)
		c.send(t, stream, 4096)
		if c.err == nil || len(srv.conns) != 0 {
			t.Errorf("%s: connection still open (%d on the server), holding %d bytes", name, len(srv.conns), bufferedBytes(srv))
		}
		if string(c.got) != "+PONG\r\n" || srv.Errors != 1 {
			t.Errorf("%s: replies %q, %d errors; want the PING's and 1", name, c.got, srv.Errors)
		}
	}
}

func bufferedBytes(srv *Server) int {
	n := 0
	for _, c := range srv.conns {
		n += len(c.buf)
	}
	return n
}

// TestPipelinedBatchAllocs: a warmed connection reads a pipelined batch
// of 16 GETs into its buffer, decodes each into its argument vector and
// answers from its reply buffer — no allocation on the way.
func TestPipelinedBatchAllocs(t *testing.T) {
	w, srv := newWorld(t, 1<<20)
	c := dial(t, w)
	var sets, gets []byte
	var want string
	for i := range 16 {
		key := fmt.Sprintf("key:%06d", i)
		val := strings.Repeat(string(rune('a'+i)), 32+i*30)
		sets = fmt.Appendf(sets, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(key), key, len(val), val)
		gets = fmt.Appendf(gets, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(key), key)
		want += fmt.Sprintf("$%d\r\n%s\r\n", len(val), val)
	}
	c.send(t, sets, len(sets))
	batch := func() {
		c.got = c.got[:0]
		c.send(t, gets, len(gets))
	}
	for range 4 {
		batch()
	}
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Errorf("%.1f allocations per batch of 16 GETs, want 0", n)
	}
	if string(c.got) != want || srv.Commands != 16+5*16+50*16 {
		t.Errorf("%d commands, replies %.80q..., want %.80q...", srv.Commands, c.got, want)
	}
}
