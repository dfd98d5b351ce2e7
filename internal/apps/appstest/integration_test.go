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

func TestUDPKVBothPaths(t *testing.T) {
	// Socket path.
	w := newWorld(t, "tlsf")
	store := udpkv.NewStore()
	srv, err := udpkv.NewSocketServer(w.Shards[0], 5000, store)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := udpkv.NewClient(w.Client, closedloop.ServerAddr(5000))
	if err != nil {
		t.Fatal(err)
	}
	cli.Set("lang", []byte("go"))
	cli.Get("lang")
	cli.Get("missing")
	netstack.Pump(w.Client, w.Shards[0])
	srv.Poll()
	netstack.Pump(w.Client, w.Shards[0])
	replies := cli.Drain()
	if len(replies) != 3 {
		t.Fatalf("replies = %d, want 3", len(replies))
	}
	if string(replies[0]) != "+" || string(replies[1]) != "Vgo" || string(replies[2]) != "-" {
		t.Fatalf("replies = %q", replies)
	}

	// Raw path on a fresh world: the server IS the device owner.
	w2 := newWorld(t, "tlsf")
	store2 := udpkv.NewStore()
	raw := udpkv.NewRawServer(w2.Shards[0].Device().(*uknetdev.VirtioNet), closedloop.ServerIP, 5000, store2)
	cli2, err := udpkv.NewClient(w2.Client, closedloop.ServerAddr(5000))
	if err != nil {
		t.Fatal(err)
	}
	pump2 := func() {
		// The first datagram also needs an ARP round trip before the
		// request itself reaches the server: pump until quiescent.
		for i := 0; i < 4; i++ {
			w2.Client.Poll()
			raw.Poll()
			w2.Client.Poll()
		}
	}
	cli2.Set("k1", []byte("v1"))
	pump2()
	got := cli2.Drain()
	if len(got) != 1 || string(got[0]) != "+" {
		t.Fatalf("raw set replies = %q", got)
	}
	cli2.Get("k1")
	pump2()
	got = cli2.Drain()
	if len(got) != 1 || string(got[0]) != "Vv1" {
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
