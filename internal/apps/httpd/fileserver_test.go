package httpd_test

import (
	"fmt"
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/apps/httpd"
	"unikraft/internal/closedloop"
	"unikraft/internal/netstack"
	"unikraft/internal/ramfs"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/vfscore"
)

// newWorld is the one-core closed-loop world; each test adds its server.
func newWorld(t *testing.T, zeroCopy bool) *closedloop.World {
	t.Helper()
	w, err := closedloop.New(sim.NewMachine, closedloop.Config{Cores: 1, Alloc: "tlsf", ZeroCopy: zeroCopy})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var testFiles = map[string][]byte{
	"/index.html": []byte("<html>index</html>"),
	"/big.bin":    makeContent(10000),
	"/small.txt":  []byte("ok"),
}

func makeContent(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + i%10)
	}
	return b
}

func vfsBackend(t *testing.T, m *sim.Machine, cachePages int) *httpd.VFSFiles {
	t.Helper()
	rfs := ramfs.New()
	for path, data := range testFiles {
		f, err := rfs.Root().Create(path[1:], false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	v := vfscore.New(m)
	if err := v.Mount("/", rfs); err != nil {
		t.Fatal(err)
	}
	if cachePages > 0 {
		v.EnablePageCache(cachePages)
	}
	return &httpd.VFSFiles{VFS: v}
}

func shfsBackend(t *testing.T, m *sim.Machine) *httpd.SHFSFiles {
	t.Helper()
	vol := shfs.New(m, 64)
	for path, data := range testFiles {
		if err := vol.Add(path, data); err != nil {
			t.Fatal(err)
		}
	}
	vol.Seal()
	return &httpd.SHFSFiles{Vol: vol}
}

// serveMix drives one request per path through the server and returns
// the generator.
func serveMix(t *testing.T, w *closedloop.World, srv *httpd.Server, paths []string) *httpd.LoadGen {
	t.Helper()
	w.Apps = []closedloop.App{srv}
	// One connection: requests walk `paths` in order, exactly once each.
	gen := httpd.NewLoadGen(w.Client, closedloop.ServerAddr(80), 1)
	gen.SetPaths(paths)
	if err := w.Connect(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(gen, 1, len(paths)); err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestFileServer: both backends, both datapaths, serve the right bytes
// with correct Content-Length, and missing paths 404 without killing
// the connection.
func TestFileServer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shfs     bool
		sendfile bool
	}{
		{"vfscore-copy", false, false},
		{"vfscore-sendfile", false, true},
		{"shfs-copy", true, false},
		{"shfs-sendfile", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.sendfile)
			sm := w.Shards[0].Machine()
			var backend httpd.FileBackend
			if tc.shfs {
				backend = shfsBackend(t, sm)
			} else {
				backend = vfsBackend(t, sm, 32)
			}
			srv, err := httpd.NewFileServer(w.Shards[0], w.Allocs.Shard(0), 80, backend, tc.sendfile)
			if err != nil {
				t.Fatal(err)
			}
			paths := []string{"/index.html", "/big.bin", "/missing.html", "/small.txt", "/big.bin", "/"}
			gen := serveMix(t, w, srv, paths)
			if gen.NotFound != 1 {
				t.Errorf("NotFound = %d, want 1", gen.NotFound)
			}
			if srv.NotFound != 1 {
				t.Errorf("server NotFound = %d, want 1", srv.NotFound)
			}
			// "/" serves the index; byte accounting covers both /big.bin
			// fetches, the index twice, and small.txt.
			wantBytes := uint64(2*len(testFiles["/big.bin"]) + 2*len(testFiles["/index.html"]) + len(testFiles["/small.txt"]))
			if gen.BytesRead != wantBytes {
				t.Errorf("BytesRead = %d, want %d", gen.BytesRead, wantBytes)
			}
			if srv.Requests != uint64(len(paths)) {
				t.Errorf("server Requests = %d, want %d", srv.Requests, len(paths))
			}
		})
	}
}

// TestFileServerSendfileCheaper: serving the same mix, the zero-copy
// sendfile configuration spends measurably fewer server cycles per
// request than the copying configuration.
func TestFileServerSendfileCheaper(t *testing.T) {
	run := func(sendfile bool) uint64 {
		w := newWorld(t, sendfile)
		sm := w.Shards[0].Machine()
		cache := 0
		if sendfile {
			cache = 32
		}
		srv, err := httpd.NewFileServer(w.Shards[0], w.Allocs.Shard(0), 80, vfsBackend(t, sm, cache), sendfile)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for i := 0; i < 8; i++ {
			paths = append(paths, "/big.bin")
		}
		start := sm.CPU.Cycles()
		serveMix(t, w, srv, paths)
		return sm.CPU.Cycles() - start
	}
	copying := run(false)
	zc := run(true)
	if zc >= copying {
		t.Errorf("sendfile path (%d cycles) not below copying path (%d)", zc, copying)
	}
}

// TestFixedPageUnchanged: with no file backend the server still serves
// the fixed page — the calibrated fig13 configuration — and the
// request mix machinery stays out of the way.
func TestFixedPageUnchanged(t *testing.T) {
	w := newWorld(t, false)
	srv, err := httpd.New(w.Shards[0], w.Allocs.Shard(0), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := serveMix(t, w, srv, []string{"/index.html", "/whatever.html"})
	if gen.BytesRead != uint64(2*len(httpd.DefaultPage)) {
		t.Errorf("fixed-page BytesRead = %d, want %d", gen.BytesRead, 2*len(httpd.DefaultPage))
	}
	if gen.NotFound != 0 {
		t.Errorf("fixed-page mode returned %d 404s", gen.NotFound)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits

// byteSink is the world's generator side for a test that writes its own
// byte stream: every pump round it appends what the connection has to
// read, and counts those bytes as progress; err is what ended the
// stream, once the peer has.
type byteSink struct {
	conn *netstack.TCPConn
	got  []byte
	err  error
}

func (s *byteSink) Ready() bool { return s.conn.Established() }
func (s *byteSink) Fire(int)    {}
func (s *byteSink) Collect() int {
	var buf [4096]byte
	n, err := s.conn.Read(buf[:])
	if err != netstack.ErrWouldBlock {
		s.err = err
	}
	s.got = append(s.got, buf[:n]...)
	return n
}

// TestRequestBufferAcrossReads: requests arrive pipelined and cut at
// arbitrary byte positions; the connection's request buffer keeps the
// partial tail at its front between polls, and every request line
// shape — GET, HEAD, an unknown method, a malformed line — gets its
// answer, in order.
func TestRequestBufferAcrossReads(t *testing.T) {
	stream := "GET /small.txt HTTP/1.1\r\nHost: a\r\n\r\n" +
		"HEAD /big.bin HTTP/1.1\r\n\r\n" +
		"POST /small.txt HTTP/1.1\r\n\r\n" +
		"GET /nope HTTP/1.1\r\n\r\n" +
		"GET /index.html HTTP/1.1\r\nUser-Agent: x y z\r\n\r\n" +
		"GET  /two-spaces HTTP/1.1\r\n\r\n" // malformed: 400 and close
	want := "HTTP/1.1 200 OK\r\nServer: ukhttpd\r\nContent-Length: 2\r\nContent-Type: text/html\r\n\r\nok" +
		"HTTP/1.1 200 OK\r\nServer: ukhttpd\r\nContent-Length: 10000\r\nContent-Type: text/html\r\n\r\n" +
		"HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nServer: ukhttpd\r\nContent-Length: 18\r\nContent-Type: text/html\r\n\r\n<html>index</html>" +
		"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
	for _, cut := range []int{1, 7, 33, len(stream)} {
		w := newWorld(t, false)
		srv, err := httpd.NewFileServer(w.Shards[0], w.Allocs.Shard(0), 80, vfsBackend(t, w.Shards[0].Machine(), 0), true)
		if err != nil {
			t.Fatal(err)
		}
		w.Apps = []closedloop.App{srv}
		conn, _ := w.Client.ConnectTCP(closedloop.ServerAddr(80))
		sink := &byteSink{conn: conn}
		w.Pump(sink)
		for rest := stream; len(rest) > 0; {
			n := min(cut, len(rest))
			if _, err := conn.Write([]byte(rest[:n])); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
			w.Pump(sink)
		}
		if string(sink.got) != want {
			t.Fatalf("cut %d: responses\n%q\nwant\n%q", cut, sink.got, want)
		}
		if srv.Requests != 4 || srv.Errors != 2 || srv.NotFound != 1 || srv.OpenConns() != 0 {
			t.Fatalf("cut %d: requests %d errors %d notfound %d open %d", cut, srv.Requests, srv.Errors, srv.NotFound, srv.OpenConns())
		}
	}
}
