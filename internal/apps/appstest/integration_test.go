// Package appstest holds cross-module integration tests: full client/
// server application flows (HTTP, RESP, the UDP key-value protocol)
// over the simulated network stack and virtio pair — the end-to-end
// paths whose per-request cycle totals the application experiments
// (Figs 12/13/15/18, Table 4) turn into throughput numbers.
package appstest

import (
	"fmt"
	"testing"

	_ "unikraft/internal/allocators/mimalloc"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/apps/kvstore"
	"unikraft/internal/apps/udpkv"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/uknetdev"
)

// newWorld is the one-core closed-loop world the application
// experiments measure on; each test adds the server under test.
func newWorld(t *testing.T, alloc string) *closedloop.World {
	t.Helper()
	w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: 1, Alloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// noLoad lets a test that drives its own connection use the world's
// pump.
type noLoad struct{}

func (noLoad) Ready() bool  { return true }
func (noLoad) Fire(int)     {}
func (noLoad) Collect() int { return 0 }

func TestHTTPEndToEnd(t *testing.T) {
	w := newWorld(t, "mimalloc")
	srv, err := httpd.New(w.Shards[0], w.Allocs.Shard(0), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	gen := httpd.NewLoadGen(w.Client, closedloop.ServerAddr(80), 5)
	if err := w.Connect(gen); err != nil {
		t.Fatal(err)
	}
	const want = 100
	if _, err := w.Run(gen, 1, want); err != nil {
		t.Fatal(err)
	}
	if srv.Requests < want {
		t.Fatalf("server requests = %d, want >= %d", srv.Requests, want)
	}
	if srv.Errors != 0 {
		t.Fatalf("server errors = %d", srv.Errors)
	}
	// Each response carries the 612B page.
	if gen.BytesRead != gen.Completed*uint64(len(httpd.DefaultPage)) {
		t.Fatalf("bytes = %d for %d responses of %dB", gen.BytesRead, gen.Completed, len(httpd.DefaultPage))
	}
}

func TestRESPEndToEnd(t *testing.T) {
	w := newWorld(t, "tlsf")
	srv, err := kvstore.New(w.Shards[0], w.Allocs.Shard(0), 6379)
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	conn, err := w.Client.ConnectTCP(closedloop.ServerAddr(6379))
	if err != nil {
		t.Fatal(err)
	}
	w.Pump(noLoad{})
	send := func(cmd string) string {
		conn.Write([]byte(cmd))
		w.Pump(noLoad{})
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read after %q: %v", cmd, err)
		}
		return string(buf[:n])
	}
	if got := send("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n"); got != "+OK\r\n" {
		t.Fatalf("SET reply = %q", got)
	}
	if got := send("*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n"); got != "$3\r\nbar\r\n" {
		t.Fatalf("GET reply = %q", got)
	}
	if got := send("*2\r\n$3\r\nGET\r\n$4\r\nnope\r\n"); got != "$-1\r\n" {
		t.Fatalf("GET missing reply = %q", got)
	}
	if got := send("*2\r\n$3\r\nDEL\r\n$3\r\nfoo\r\n"); got != ":1\r\n" {
		t.Fatalf("DEL reply = %q", got)
	}
	if srv.Keys() != 0 {
		t.Fatalf("keys = %d after DEL", srv.Keys())
	}
	// Pipelined batch: all replies in order.
	batch := "*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPING\r\n"
	if got := send(batch); got != "+PONG\r\n+PONG\r\n+PONG\r\n" {
		t.Fatalf("pipelined reply = %q", got)
	}
}

// udpkvExchange sends each request from one client socket on w, pumps
// the world to quiescence and returns the replies.
func udpkvExchange(t *testing.T, w *closedloop.World, reqs ...string) []string {
	t.Helper()
	conn, err := w.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := conn.SendTo(closedloop.ServerAddr(5000), []byte(req)); err != nil {
			t.Fatal(err)
		}
	}
	// The first datagram of a world also needs an ARP round trip before
	// the request itself reaches the server.
	w.Pump(noLoad{})
	var replies []string
	for d, ok := conn.RecvFrom(); ok; d, ok = conn.RecvFrom() {
		replies = append(replies, string(d.Data))
	}
	return replies
}

func TestUDPKVBothPaths(t *testing.T) {
	// Socket path.
	w := newWorld(t, "tlsf")
	srv, err := udpkv.NewSocketServer(w.Shards[0], 5000, udpkv.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	replies := udpkvExchange(t, w, "Slang\x00go", "Glang", "Gmissing")
	if len(replies) != 3 {
		t.Fatalf("replies = %d, want 3", len(replies))
	}
	if replies[0] != "+" || replies[1] != "Vgo" || replies[2] != "-" {
		t.Fatalf("replies = %q", replies)
	}

	// Raw path on a world with no server netstack: the server IS the
	// device owner.
	cm, sm := sim.NewMachine(), sim.NewMachine()
	cd, sd, err := uknetdev.NewPair(cm, sm, uknetdev.VhostNet)
	if err != nil {
		t.Fatal(err)
	}
	store2 := udpkv.NewStore()
	raw := udpkv.NewRawServer(sd, closedloop.ServerIP, 5000, store2)
	w2 := &closedloop.World{
		Client: netstack.New(cm, cd, netstack.Config{Addr: closedloop.ClientIP}),
		Cores:  []*sim.Machine{sm}, Apps: []closedloop.App{raw},
	}
	if got := udpkvExchange(t, w2, "Sk1\x00v1"); len(got) != 1 || got[0] != "+" {
		t.Fatalf("raw set replies = %q", got)
	}
	if got := udpkvExchange(t, w2, "Gk1"); len(got) != 1 || got[0] != "Vv1" {
		t.Fatalf("raw get replies = %q", got)
	}
	if store2.Len() != 1 || raw.Served != 2 {
		t.Fatalf("store=%d served=%d", store2.Len(), raw.Served)
	}
}

func TestHTTPManyRequestsAcrossAllocators(t *testing.T) {
	for _, alloc := range []string{"mimalloc", "tlsf"} {
		t.Run(alloc, func(t *testing.T) {
			w := newWorld(t, alloc)
			srv, err := httpd.New(w.Shards[0], w.Allocs.Shard(0), 80, []byte("tiny page"))
			if err != nil {
				t.Fatal(err)
			}
			w.Apps = []closedloop.App{srv}
			gen := httpd.NewLoadGen(w.Client, closedloop.ServerAddr(80), 10)
			if err := w.Connect(gen); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(gen, 2, 500); err != nil {
				t.Fatal(err)
			}
			if srv.Errors != 0 {
				t.Fatalf("errors = %d", srv.Errors)
			}
		})
	}
}

func TestBadHTTPRequestRejected(t *testing.T) {
	w := newWorld(t, "tlsf")
	srv, err := httpd.New(w.Shards[0], w.Allocs.Shard(0), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	conn, _ := w.Client.ConnectTCP(closedloop.ServerAddr(80))
	w.Pump(noLoad{})
	conn.Write([]byte("NONSENSE\r\n\r\n"))
	w.Pump(noLoad{})
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if n == 0 {
		t.Fatal("no error response")
	}
	if got := string(buf[:n]); got[:17] != "HTTP/1.1 400 Bad " {
		t.Fatalf("response = %q", got)
	}
	if srv.Errors == 0 {
		t.Fatal("error not counted")
	}
	_ = fmt.Sprint() // keep fmt for future debugging
}
