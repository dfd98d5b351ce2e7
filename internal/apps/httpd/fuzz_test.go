package httpd_test

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"unikraft/internal/apps/httpd"
	"unikraft/internal/closedloop"
)

// fuzzServers are FuzzServeConn's worlds, one per (backend, datapath),
// built on first use and kept for the life of the fuzz worker: a world
// is a 64 MB arena, an input is one connection.
var fuzzServers = map[[2]bool]*fuzzServer{}

type fuzzServer struct {
	w   *closedloop.World
	srv *httpd.Server
}

func fuzzServerFor(t *testing.T, useSHFS, sendfile bool) *fuzzServer {
	key := [2]bool{useSHFS, sendfile}
	if fs := fuzzServers[key]; fs != nil {
		return fs
	}
	w := newWorld(t, sendfile)
	var backend httpd.FileBackend = vfsBackend(t, w.Shards[0].Machine(), 32)
	if useSHFS {
		backend = shfsBackend(t, w.Shards[0].Machine())
	}
	srv, err := httpd.NewFileServer(w.Shards[0], w.Allocs.Shard(0), 80, backend, sendfile)
	if err != nil {
		t.Fatal(err)
	}
	w.Apps = []closedloop.App{srv}
	fuzzServers[key] = &fuzzServer{w, srv}
	return fuzzServers[key]
}

var statusLine = regexp.MustCompile(`^HTTP/1\.1 ([0-9]{3}) [A-Za-z ]+\r\n`)

// checkResponses requires got to be whole responses, the k-th answering
// the k-th request: a status line, a Content-Length, and exactly that
// many body bytes — the named file's — unless the request was a HEAD.
// It returns how many there are.
func checkResponses(t *testing.T, got []byte, requests [][]byte) int {
	t.Helper()
	k := 0
	for ; len(got) > 0; k++ {
		if k == len(requests) {
			t.Fatalf("%d requests, then still %q", k, got)
		}
		head, rest, whole := bytes.Cut(got, []byte("\r\n\r\n"))
		m := statusLine.FindSubmatch(got)
		_, length, hasLength := strings.Cut(string(head), "\r\nContent-Length: ")
		length, _, _ = strings.Cut(length, "\r\n")
		n, err := strconv.Atoi(length)
		if !whole || m == nil || !hasLength || err != nil {
			t.Fatalf("response %d is no response: %q", k, got)
		}
		if bytes.HasPrefix(requests[k], []byte("HEAD ")) || n == 0 {
			got = rest
			continue
		}
		if string(m[1]) != "200" || len(rest) < n {
			t.Fatalf("response %d: status %s, %d of %d body bytes", k, m[1], min(len(rest), n), n)
		}
		isFile := false
		for _, content := range testFiles {
			isFile = isFile || bytes.Equal(rest[:n], content)
		}
		if !isFile {
			t.Fatalf("response %d: %d body bytes that are no file of the site", k, n)
		}
		got = rest[n:]
	}
	return k
}

// FuzzServeConn writes arbitrary bytes down one client connection of a
// static-file server — vfscore or SHFS behind it, copying or sendfile
// responses — the way a hostile peer would: the request parser reads
// them in the guest's one address space. Nothing may panic; the client
// must read back whole, well-framed responses and nothing else, one per
// terminated request for as long as the server keeps the connection; a
// request is only ever counted for a terminator; and a header that
// passes 16 KiB unterminated gets the connection closed.
func FuzzServeConn(f *testing.F) {
	const get = "GET /small.txt HTTP/1.1\r\nHost: a\r\n\r\n"
	for i, seed := range []string{
		get + "HEAD /big.bin HTTP/1.1\r\n\r\n" + "GET /big.bin HTTP/1.1\r\n\r\n" + "GET / HTTP/1.0\r\n\r\n" + get,
		"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n" + get,
		"GET /. HTTP/1.1\r\n\r\n" + "GET // HTTP/1.1\r\n\r\n" + "GET /../x HTTP/1.1\r\n\r\n" + "GET /../index.html HTTP/1.1\r\n\r\n",
		"GET index.html HTTP/1.1\r\n\r\n" + "GET  HTTP/1.1\r\n\r\n" + get,
		"\r\n\r\n",
		"POST /small.txt HTTP/1.1\r\n\r\n" + "HEAD /nope HTTP/1.1\r\n\r\n" + "GET /small.txt FTP/1.1\r\n\r\n" + get,
		get + "GET /small.txt HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 17<<10) + "\r\n\r\n",
		get + "GET /" + strings.Repeat("a", 17<<10),
		get + "GET /small.txt HTTP/1.1\r\nHost: a\r\n\r",
	} {
		f.Add([]byte(seed), i&1 != 0, i&2 != 0)
		f.Add([]byte(seed), i&1 == 0, i&2 == 0)
	}

	f.Fuzz(func(t *testing.T, in []byte, useSHFS, sendfile bool) {
		if len(in) > 64<<10 {
			t.Skip("longer than any header limit needs")
		}
		fs := fuzzServerFor(t, useSHFS, sendfile)
		w, srv := fs.w, fs.srv
		served := srv.Requests
		conn, err := w.Client.ConnectTCP(closedloop.ServerAddr(80))
		if err != nil {
			t.Fatal(err)
		}
		sink := &byteSink{conn: conn}
		w.Pump(sink)
		// Short writes with a pump between them: the server sees requests
		// cut anywhere, and no burst of pipelined requests can outrun its
		// 256 KiB send buffer, which it answers by dropping the connection.
		for rest := in; len(rest) > 0; {
			n, err := conn.Write(rest[:min(256, len(rest))])
			if err != nil {
				break // the server hung up first
			}
			rest = rest[n:]
			w.Pump(sink)
		}

		parts := bytes.SplitAfter(in, []byte("\r\n\r\n"))
		requests, tail := parts[:len(parts)-1], parts[len(parts)-1]
		answered := checkResponses(t, sink.got, requests)
		if sink.err == nil && answered != len(requests) {
			t.Fatalf("%d of %d requests answered on a connection still open", answered, len(requests))
		}
		if n := int(srv.Requests - served); n > len(requests) {
			t.Fatalf("%d requests counted for %d terminators", n, len(requests))
		}
		if len(tail) > 16<<10 && sink.err == nil {
			t.Fatalf("%d header bytes with no terminator and the connection is still open", len(tail))
		}

		// Hang up, and let both ends' TIME_WAIT (1 s at 3.6 GHz) run out,
		// so the next input finds the connection tables empty.
		conn.Close()
		w.Pump(sink)
		w.Client.Machine().Charge(4_000_000_000)
		w.Shards[0].Machine().Charge(4_000_000_000)
		w.Pump(sink)
		if srv.OpenConns() != 0 {
			t.Fatalf("%d connections left open on the server", srv.OpenConns())
		}
	})
}
