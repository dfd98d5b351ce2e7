// Package httpd is the repository's nginx stand-in: an event-driven
// HTTP/1.1 server with keep-alive over the netstack socket API. It
// follows nginx's single-worker event-loop structure (the
// configuration the paper benchmarks on one core), and allocates
// per-request scratch memory from a ukalloc backend so that the
// allocator-swap experiments (Fig 15) measure real allocator
// behaviour.
//
// Two serving modes: the fixed 612-byte page (the calibrated Fig 13
// configuration — its charges must not move) and static-file mode
// (NewFileServer), where request paths resolve through a FileBackend —
// vfscore (open/fstat per request at the Fig 22 standard-path cost) or
// the specialized SHFS volume (~300-cycle hash-probe opens) — and
// responses either assemble via a copying read or stream zero-copy
// through Sendfile under TCP_CORK, the fileserve experiment's two
// datapaths.
package httpd

import (
	"bytes"
	"strconv"

	"unikraft/internal/netstack"
	"unikraft/internal/shfs"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/vfscore"
)

// DefaultPage is the 612-byte static page the paper's wrk benchmark
// fetches ("static 612B page", Fig 13) — the stock nginx index.html is
// 612 bytes.
var DefaultPage = buildDefaultPage()

func buildDefaultPage() []byte {
	base := "<!DOCTYPE html><html><head><title>Welcome to unikraft!</title></head>" +
		"<body><h1>Welcome to unikraft!</h1><p>If you see this page, the unikernel " +
		"web server is successfully installed and working. Further configuration is required.</p>"
	b := []byte(base)
	for len(b) < 606 {
		b = append(b, byte('a'+len(b)%26))
	}
	return append(b, []byte("</b></html>")[:612-len(b)]...)
}

// poolRing is the number of response buffers kept live before the
// oldest is recycled, modelling nginx's pool behaviour: buffers live
// across requests and are retired in roughly FIFO order when pools are
// reset — the allocation lifetime pattern behind Fig 15's allocator
// differences.
const poolRing = 1024

// Server is the HTTP server instance.
type Server struct {
	stack *netstack.Stack
	alloc ukalloc.Allocator
	lis   *netstack.Listener
	conns []*conn
	page  []byte
	hdr   []byte // response-header scratch, rebuilt per request

	// pool is the FIFO of live response buffers, a fixed ring: poolLen
	// of them, the oldest at poolHead once the ring is full.
	pool              [poolRing]ukalloc.Ptr
	poolHead, poolLen int

	// files switches the server to static-file mode: request paths
	// resolve through the backend (open/stat per request, 404 on
	// misses) instead of the fixed page. sendfile selects the zero-copy
	// response path (pages handed from the backend straight into socket
	// writes) over the copying read-into-buffer path.
	files    FileBackend
	sendfile bool
	// paths interns request paths (pathString). emit is lendPage as a
	// func value, made once so that a sendfile allocates no closure;
	// lendTo is the connection it lends to.
	paths  map[string]string
	lendTo *netstack.TCPConn
	emit   func([]byte) error

	// Requests and Errors count served requests and protocol errors;
	// NotFound counts 404 responses (file mode).
	Requests uint64
	Errors   uint64
	NotFound uint64
}

type conn struct {
	tc  *netstack.TCPConn
	buf []byte // partial request bytes; its array is reused across requests
}

// New starts an HTTP server on port with the given page (nil =
// DefaultPage).
func New(stack *netstack.Stack, alloc ukalloc.Allocator, port uint16, page []byte) (*Server, error) {
	if page == nil {
		page = DefaultPage
	}
	lis, err := stack.ListenTCP(port, 256)
	if err != nil {
		return nil, err
	}
	return &Server{stack: stack, alloc: alloc, lis: lis, page: page}, nil
}

// NewFileServer starts a static-file HTTP server on port: request
// paths resolve through files (open/stat per request, Content-Length
// from the stat, 404 for misses). With sendfile set, responses stream
// file pages zero-copy from the backend into socket writes; otherwise
// each response is assembled in an allocator-backed buffer via a
// copying read — the pair of configurations the fileserve experiment
// measures against each other.
func NewFileServer(stack *netstack.Stack, alloc ukalloc.Allocator, port uint16, files FileBackend, sendfile bool) (*Server, error) {
	srv, err := New(stack, alloc, port, nil)
	if err != nil {
		return nil, err
	}
	srv.files = files
	srv.sendfile = sendfile
	srv.paths = map[string]string{}
	srv.emit = srv.lendPage
	return srv, nil
}

// maxPaths bounds the request paths a file server interns: a site's
// paths then cost no allocation per request, while a stream of
// distinct ones (a crawler, a fuzzer) cannot grow the table past it.
const maxPaths = 1024

// pathString returns b as a string, interned while the table has room.
func (s *Server) pathString(b []byte) string {
	if p, ok := s.paths[string(b)]; ok {
		return p
	}
	p := string(b)
	if len(s.paths) < maxPaths {
		s.paths[p] = p
	}
	return p
}

// Poll runs one event-loop iteration: accept new connections, then
// process readable ones. Callers pump the stack first.
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

// serveConn drains requests from one connection; returns false when the
// connection is finished.
func (s *Server) serveConn(c *conn) bool {
	var tmp [4096]byte
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
	// Parse complete requests (terminated by CRLFCRLF), then move what
	// is left of a partial one to the front of the buffer.
	rest := c.buf
	for {
		idx := bytes.Index(rest, crlfcrlf)
		if idx < 0 {
			if len(rest) > 16<<10 {
				s.Errors++
				c.tc.Close()
				return false
			}
			c.buf = c.buf[:copy(c.buf, rest)]
			return true
		}
		req := rest[:idx+4]
		rest = rest[idx+4:]
		keepAlive := s.handleRequest(c.tc, req)
		if !keepAlive {
			c.tc.Close()
			return false
		}
	}
}

var (
	crlfcrlf   = []byte("\r\n\r\n")
	space      = []byte(" ")
	httpProto  = []byte("HTTP/1.")
	connClose  = []byte("Connection: close")
	methodGet  = []byte("GET")
	methodHead = []byte("HEAD")
)

// okHeader renders the 200 response header for a body of size bytes
// into the server's scratch buffer, valid until the next call.
func (s *Server) okHeader(size int64) []byte {
	s.hdr = append(s.hdr[:0], "HTTP/1.1 200 OK\r\nServer: ukhttpd\r\nContent-Length: "...)
	s.hdr = strconv.AppendInt(s.hdr, size, 10)
	s.hdr = append(s.hdr, "\r\nContent-Type: text/html\r\n\r\n"...)
	return s.hdr
}

// statusResponse renders a bodyless response into the same scratch.
func (s *Server) statusResponse(status string) []byte {
	s.hdr = append(s.hdr[:0], "HTTP/1.1 "...)
	s.hdr = append(s.hdr, status...)
	s.hdr = append(s.hdr, "\r\nContent-Length: 0\r\n\r\n"...)
	return s.hdr
}

// handleRequest parses one request and writes the response. Returns
// whether the connection stays open.
func (s *Server) handleRequest(tc *netstack.TCPConn, req []byte) bool {
	line := req
	if i := bytes.IndexByte(req, '\r'); i >= 0 {
		line = req[:i]
	}
	// "METHOD SP PATH SP VERSION", the version taking the rest of the line.
	method, rest, ok := bytes.Cut(line, space)
	path, version, ok2 := bytes.Cut(rest, space)
	if !ok || !ok2 || !bytes.HasPrefix(version, httpProto) {
		s.Errors++
		s.writeSimple(tc, "400 Bad Request")
		return false
	}
	get := bytes.Equal(method, methodGet)
	keepAlive := !bytes.Contains(req, connClose)
	s.stack.Machine().Pay(sim.CostNginxRequest, 1)
	if !get && !bytes.Equal(method, methodHead) {
		s.Errors++
		s.writeSimple(tc, "405 Method Not Allowed")
		return keepAlive
	}
	s.Requests++
	if s.files != nil {
		// A truncated response (send-buffer exhaustion mid-file) poisons
		// the connection's framing — the only honest signal is closing
		// it, Content-Length contract broken.
		if !s.serveFile(tc, s.pathString(path), get) {
			return false
		}
		return keepAlive
	}
	// Build the response in an allocator-backed scratch buffer, as
	// nginx builds response chains from its pools.
	header := s.okHeader(int64(len(s.page)))
	total := len(header)
	if get {
		total += len(s.page)
	}
	p, err := s.alloc.Malloc(total)
	if err != nil {
		s.Errors++
		s.writeSimple(tc, "500 Internal Server Error")
		return keepAlive
	}
	buf := ukalloc.Bytes(s.alloc, p, total)
	n := copy(buf, header)
	if get {
		copy(buf[n:], s.page)
	}
	tc.Write(buf)
	// Retire the buffer through the FIFO pool rather than immediately:
	// nginx keeps output-chain buffers alive across keep-alive requests
	// and recycles pools in bulk.
	s.retire(p)
	return keepAlive
}

// serveFile answers one request in static-file mode: resolve the path
// through the backend (404 only for missing paths; any other open
// failure — fd-table exhaustion, I/O errors — is a 500 and counts as a
// server error), Content-Length from the stat, then either stream
// pages zero-copy (sendfile) or assemble the response in a pooled
// allocator buffer (the copying path). It returns false when the
// response could not be sent in full (the connection must close: the
// client has a Content-Length promise the server can no longer keep).
func (s *Server) serveFile(tc *netstack.TCPConn, path string, get bool) bool {
	if path == "" || path == "/" {
		path = "/index.html"
	}
	h, size, err := s.files.Open(path)
	if err != nil {
		if isNotExist(err) {
			s.NotFound++
			return s.writeStatus(tc, "404 Not Found")
		}
		s.Errors++
		return s.writeStatus(tc, "500 Internal Server Error")
	}
	defer h.Close()
	header := s.okHeader(size)

	if s.sendfile && get {
		// Zero-copy response: the header goes out of a small pooled
		// buffer, then the backend hands file pages straight into
		// socket writes by reference — no response assembly, no
		// content copy, the socket queues the page itself. The
		// connection is corked around the scattered writes (as nginx
		// sets TCP_CORK before sendfile) so page-sized emits coalesce
		// into full-MSS segments instead of one fragment per page.
		tc.Cork()
		ok := s.writePooled(tc, header)
		if ok {
			s.lendTo = tc
			n, err := h.Sendfile(0, size, s.emit)
			s.lendTo = nil
			// A short emit without error (file shrank between stat and
			// send — e.g. truncated through a shared 9p export) breaks
			// the Content-Length promise just like a write failure.
			if err != nil || n != size {
				s.Errors++
				ok = false
			}
		}
		tc.Uncork()
		return ok
	}

	// Copying path: read the content into an allocator-backed response
	// buffer behind the header, as nginx builds output chains without
	// sendfile.
	total := len(header)
	if get {
		total += int(size)
	}
	p, err := s.alloc.Malloc(total)
	if err != nil {
		s.Errors++
		return s.writeStatus(tc, "500 Internal Server Error")
	}
	buf := ukalloc.Bytes(s.alloc, p, total)
	n := copy(buf, header)
	if get {
		// Nothing has gone out yet, so a failed or short content read
		// can still be an honest 500 — never a 200 wrapping whatever
		// stale bytes the recycled pool buffer held.
		rn, err := h.ReadAt(buf[n:], 0)
		if err != nil || int64(rn) != size {
			s.Errors++
			s.retire(p)
			return s.writeStatus(tc, "500 Internal Server Error")
		}
	}
	ok := writeFull(tc.Write, buf)
	s.retire(p)
	if !ok {
		s.Errors++
	}
	return ok
}

// lendPage is the sendfile emit: it lends one file page to the
// connection being served, which may hold it by reference because a
// page Sendfile emits never changes.
func (s *Server) lendPage(p []byte) error {
	if !writeFull(s.lendTo.WriteRef, p) {
		return netstack.ErrBufferFull
	}
	return nil
}

// isNotExist reports whether a backend open failed because the path is
// absent (backend-agnostic: vfscore or shfs).
func isNotExist(err error) bool {
	return err == vfscore.ErrNotExist || err == shfs.ErrNotExist
}

// writeFull pushes all of p through a socket write (Write, or WriteRef
// to lend it), tolerating short writes while the peer drains (TCP flow
// control); it gives up — and reports failure — only when the send
// buffer itself is exhausted or the connection dies. The event loop
// cannot block, so buffer exhaustion (a response larger than the
// 256 KiB send buffer can absorb) is a hard failure, not a wait.
func writeFull(write func([]byte) (int, error), p []byte) bool {
	for len(p) > 0 {
		n, err := write(p)
		if err != nil {
			return false
		}
		if n == 0 {
			return false
		}
		p = p[n:]
	}
	return true
}

// writePooled sends data from an allocator-backed buffer retired
// through the FIFO pool (the sendfile path's header write), reporting
// whether it all went out.
func (s *Server) writePooled(tc *netstack.TCPConn, data []byte) bool {
	p, err := s.alloc.Malloc(len(data))
	if err != nil {
		s.Errors++
		return false
	}
	buf := ukalloc.Bytes(s.alloc, p, len(data))
	copy(buf, data)
	ok := writeFull(tc.Write, buf)
	s.retire(p)
	if !ok {
		s.Errors++ // same accounting as the copying path's write failure
	}
	return ok
}

// retire queues a response buffer on the FIFO pool, freeing the oldest
// past the ring bound — nginx's pool recycling.
func (s *Server) retire(p ukalloc.Ptr) {
	if s.poolLen < poolRing { // still filling from slot 0
		s.pool[s.poolLen] = p
		s.poolLen++
		return
	}
	s.alloc.Free(s.pool[s.poolHead])
	s.pool[s.poolHead] = p
	s.poolHead = (s.poolHead + 1) % poolRing
}

// writeStatus sends a bodyless status response with checked delivery:
// a dropped or truncated error response breaks keep-alive framing just
// like a truncated 200, so failure means "close the connection" (false)
// rather than a silent desync. File-mode error paths use it; the
// fixed-page mode keeps the calibrated unchecked writeSimple.
func (s *Server) writeStatus(tc *netstack.TCPConn, status string) bool {
	return writeFull(tc.Write, s.statusResponse(status))
}

func (s *Server) writeSimple(tc *netstack.TCPConn, status string) {
	tc.Write(s.statusResponse(status))
}

// LoadGen is a wrk-like load generator: N keep-alive connections each
// issuing sequential GET requests. With SetPaths it cycles a request
// mix across the site (each connection walks the list round-robin from
// its own offset) instead of hammering one URL.
type LoadGen struct {
	stack *netstack.Stack
	conns []*genConn
	paths [][]byte // pre-rendered requests, nil = the fixed index.html
	// Completed counts full responses received; BytesRead the payload;
	// NotFound the 404 responses among them.
	Completed uint64
	BytesRead uint64
	NotFound  uint64
}

type genConn struct {
	tc      *netstack.TCPConn
	pending int // responses outstanding
	buf     []byte
	expect  int // bytes remaining of current response body
	next    int // round-robin index into paths
}

// NewLoadGen opens n connections to addr from ephemeral ports.
func NewLoadGen(stack *netstack.Stack, addr netstack.AddrPort, n int) *LoadGen {
	return NewLoadGenPorts(stack, addr, make([]uint16, n))
}

// NewLoadGenPorts opens one connection per entry of ports, each from
// that source port (0 = ephemeral). Multi-queue benchmarks choose the
// ports so the RSS hash spreads connections evenly over the server's
// queues (wrk pinned behind pktgen-style source-port selection).
func NewLoadGenPorts(stack *netstack.Stack, addr netstack.AddrPort, ports []uint16) *LoadGen {
	g := &LoadGen{stack: stack}
	for i, p := range ports {
		tc, err := stack.ConnectTCPFrom(p, addr)
		if err == nil {
			g.conns = append(g.conns, &genConn{tc: tc, next: i})
		}
	}
	return g
}

// SetPaths makes the generator request the given path mix (weighted by
// repetition) instead of the fixed /index.html. Connections start at
// staggered offsets so the mix interleaves across the fleet
// deterministically.
func (g *LoadGen) SetPaths(paths []string) {
	g.paths = g.paths[:0]
	for _, p := range paths {
		g.paths = append(g.paths, []byte("GET "+p+" HTTP/1.1\r\nHost: server\r\n\r\n"))
	}
}

// Ready reports whether all connections are established.
func (g *LoadGen) Ready() bool {
	for _, c := range g.conns {
		if !c.tc.Established() {
			return false
		}
	}
	return len(g.conns) > 0
}

var getRequest = []byte("GET /index.html HTTP/1.1\r\nHost: server\r\n\r\n")

// Fire sends one GET on every connection with fewer than `depth`
// outstanding requests.
func (g *LoadGen) Fire(depth int) {
	for _, c := range g.conns {
		for c.pending < depth {
			req := getRequest
			if len(g.paths) > 0 {
				req = g.paths[c.next%len(g.paths)]
			}
			if _, err := c.tc.Write(req); err != nil {
				break
			}
			if len(g.paths) > 0 {
				c.next++
			}
			c.pending++
		}
	}
}

// Collect consumes responses; returns number completed this call.
func (g *LoadGen) Collect() int {
	done := 0
	var tmp [8192]byte
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
		// Parse responses: header then Content-Length body; what is
		// left of a partial header moves to the front of the buffer.
		rest := c.buf
		for {
			if c.expect > 0 {
				take := c.expect
				if take > len(rest) {
					take = len(rest)
				}
				rest = rest[take:]
				c.expect -= take
				g.BytesRead += uint64(take)
				if c.expect > 0 {
					break
				}
				c.pending--
				g.Completed++
				done++
				continue
			}
			idx := bytes.Index(rest, crlfcrlf)
			if idx < 0 {
				break
			}
			head := rest[:idx]
			if bytes.HasPrefix(head, []byte("HTTP/1.1 404")) {
				g.NotFound++
			}
			rest = rest[idx+4:]
			c.expect = contentLength(head)
			if c.expect == 0 {
				// Bodyless response (404, HEAD): complete immediately —
				// the body loop above only fires for expect > 0.
				c.pending--
				g.Completed++
				done++
			}
		}
		c.buf = c.buf[:copy(c.buf, rest)]
	}
	return done
}

func contentLength(head []byte) int {
	const key = "Content-Length: "
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return 0
	}
	n := 0
	for _, ch := range head[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	return n
}
