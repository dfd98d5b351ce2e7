package ukpool

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"
)

// streamDigest is an FNV-64a digest over every field of the first n
// requests of w, in order; it fails the test if w ends early.
func streamDigest(t *testing.T, w Workload, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		r, ok := w.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d requests", i, n)
		}
		put(uint64(r.Arrival))
		put(uint64(r.Bytes))
		put(r.Key)
		put(uint64(r.Origin))
		put(uint64(r.Attempt))
		put(uint64(r.Deadline))
		put(uint64(r.Class))
	}
	return h.Sum64()
}

// TestArrivalStreams pins the request stream of every trace shape at
// fixed seeds: the digest of its first 100K requests, every field,
// must not move. Each shape draws from its generator in a fixed order
// (gap, then class, then session key), so a change to any draw, its
// order or its rounding shows here before it shows in a report.
func TestArrivalStreams(t *testing.T) {
	const n = 100_000
	surged := func() *Arrivals {
		return NewOverload(11, 300_000, n+1, 256).Mix(0.3).
			Deadlines(10*time.Millisecond, 50*time.Millisecond).Sessions(4096)
	}
	cases := []struct {
		name string
		w    Workload
		want uint64
	}{
		{"poisson", NewPoisson(1, 200_000, n, 256), 0xed39e445db5e979},
		{"bursty", NewBursty(7, 60_000, 600_000, 100*time.Millisecond, 0.2, n, 128), 0xfea76a82998f64fd},
		{"diurnal", NewDiurnal(3, 40_000, 400_000, 200*time.Millisecond,
			50*time.Millisecond, 20*time.Millisecond, 900_000, 10_000, n, 512), 0x66a8443a54c13741},
		{"overload", surged().Surge(100*time.Millisecond, 30*time.Millisecond, 4), 0xf2a0bcc483dcf891},
		// A second Surge replaces the window instead of adding one.
		{"overload-resurged", surged().Surge(10*time.Millisecond, 5*time.Millisecond, 2).
			Surge(100*time.Millisecond, 30*time.Millisecond, 4), 0xf2a0bcc483dcf891},
	}
	for _, c := range cases {
		if got := streamDigest(t, c.w, n); got != c.want {
			t.Errorf("%s: stream digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
