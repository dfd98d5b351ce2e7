package httpd

import (
	"bytes"
	"slices"
	"testing"

	"unikraft/internal/ukalloc"
)

func TestDefaultPageIs612Bytes(t *testing.T) {
	// Fig 13's workload: "static 612B page".
	if len(DefaultPage) != 612 {
		t.Fatalf("page = %d bytes, want 612", len(DefaultPage))
	}
	if !bytes.HasPrefix(DefaultPage, []byte("<!DOCTYPE html>")) {
		t.Fatal("page is not HTML")
	}
}

func TestContentLength(t *testing.T) {
	cases := []struct {
		head string
		want int
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 612\r\nServer: x", 612},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0", 0},
		{"HTTP/1.1 200 OK\r\nServer: x", 0},
		{"Content-Length: 42", 42},
	}
	for _, c := range cases {
		if got := contentLength([]byte(c.head)); got != c.want {
			t.Errorf("contentLength(%q) = %d, want %d", c.head, got, c.want)
		}
	}
}

// freeLog is an allocator that only records the order of its Frees,
// until told to stop.
type freeLog struct {
	ukalloc.Allocator
	freed []ukalloc.Ptr
	done  bool
}

func (l *freeLog) Free(p ukalloc.Ptr) error {
	if !l.done {
		l.freed = append(l.freed, p)
	}
	return nil
}

// TestRetireRing: the fixed ring frees exactly what the grown-and-
// resliced FIFO it replaced freed, in the same order — the retire order
// is the Fig 15 allocator lifetime pattern — and, unlike it, costs the
// host nothing once full.
func TestRetireRing(t *testing.T) {
	log := &freeLog{}
	s := &Server{alloc: log}
	var fifo, want []ukalloc.Ptr
	for i := 1; i <= 3*poolRing+7; i++ {
		p := ukalloc.Ptr(16 * i)
		s.retire(p)
		fifo = append(fifo, p)
		if len(fifo) > poolRing {
			want = append(want, fifo[0])
			fifo = fifo[1:]
		}
	}
	if !slices.Equal(log.freed, want) {
		t.Fatalf("ring freed %d buffers, the FIFO %d, or in another order", len(log.freed), len(want))
	}
	log.done = true
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			s.retire(ukalloc.Ptr(16 * i))
		}
	}); n != 0 {
		t.Errorf("10,000 retires on a full ring: %v allocs, want 0", n)
	}
}

// OpenConns reports live connections.
func (s *Server) OpenConns() int { return len(s.conns) }
