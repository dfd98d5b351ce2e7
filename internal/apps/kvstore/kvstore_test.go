package kvstore

import (
	"strings"
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
)

// newTestServer is a server without a listener: execute needs only the
// machine it charges, the allocator and the store.
func newTestServer(t testing.TB) *Server {
	t.Helper()
	m := sim.NewMachine()
	a, err := ukalloc.NewInitialized("tlsf", m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{stack: netstack.New(m, nil, netstack.Config{}), alloc: a, data: map[string]*value{}}
}

func command(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// TestCommandNames: command names match in any case, and an unknown
// one is answered with its upper-cased name — long, short or not ASCII.
func TestCommandNames(t *testing.T) {
	s := newTestServer(t)
	c := &conn{}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"ping"}, "+PONG\r\n"},
		{[]string{"SeT", "k", "v"}, "+OK\r\n"},
		{[]string{"gEt", "k"}, "$1\r\nv\r\n"},
		{[]string{"dbSize"}, ":1\r\n"},
		{[]string{"del", "k"}, ":1\r\n"},
		{[]string{"FlushAll"}, "+OK\r\n"},
		{[]string{"xyz"}, "-ERR unknown command 'XYZ'\r\n"},
		{[]string{"flushalls"}, "-ERR unknown command 'FLUSHALLS'\r\n"},
		{[]string{"héllo"}, "-ERR unknown command 'HÉLLO'\r\n"},
		{[]string{"get"}, "-ERR wrong number of arguments for 'get'\r\n"},
	} {
		c.out = c.out[:0]
		s.execute(c, command(tc.args...))
		if got := string(c.out); got != tc.want {
			t.Errorf("%s: replied %q, want %q", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}

// TestSetOOMDropsKey: a SET whose allocation fails has already freed the
// key's old value, so the key must go with it — left in place it reads
// allocator metadata, then another value's bytes, and a DEL frees that
// value's block.
func TestSetOOMDropsKey(t *testing.T) {
	s := newTestServer(t)
	c := &conn{}
	free0 := s.alloc.Stats().FreeBytes
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"SET", "k", "hello"}, "+OK\r\n"},
		{[]string{"SET", "k", strings.Repeat("x", 2<<20)}, "-ERR OOM\r\n"},
		{[]string{"GET", "k"}, "$-1\r\n"},
		{[]string{"SET", "other", "AAAAA"}, "+OK\r\n"},
		{[]string{"GET", "k"}, "$-1\r\n"},
		{[]string{"DEL", "k"}, ":0\r\n"},
		{[]string{"GET", "other"}, "$5\r\nAAAAA\r\n"},
		{[]string{"DBSIZE"}, ":1\r\n"},
		{[]string{"FLUSHALL"}, "+OK\r\n"},
	} {
		c.out = c.out[:0]
		s.execute(c, command(tc.args...))
		if got := string(c.out); got != tc.want {
			t.Errorf("%.20s: replied %q, want %q", strings.Join(tc.args, " "), got, tc.want)
		}
	}
	if free := s.alloc.Stats().FreeBytes; free != free0 {
		t.Errorf("after FLUSHALL %d bytes free, %d after Init", free, free0)
	}
}

// TestExecuteAllocs: matching a command name allocates nothing, so a
// GET of a stored key — the pipelined workload's common command — and a
// PING cost no Go allocation once the reply buffer has grown; nor does
// a SET of a stored key, which updates its value in place.
func TestExecuteAllocs(t *testing.T) {
	s := newTestServer(t)
	c := &conn{}
	s.execute(c, command("SET", "key:000001", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	for _, args := range [][][]byte{
		command("GET", "key:000001"), command("get", "key:000001"), command("PING"),
		command("SET", "key:000001", "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"),
	} {
		if n := testing.AllocsPerRun(100, func() {
			c.out = c.out[:0]
			s.execute(c, args)
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per command, want 0", args[0], n)
		}
	}
}
