package ukpool

import (
	"errors"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// TestFeedLetGoOnEarlyReturn: a serve that returns without reading its
// feed to the end — a closed pool, a boot that fails, in one loop or in
// shards — still lets go of it, so a producer pushing far more than the
// free list holds finishes instead of waiting for ever.
func TestFeedLetGoOnEarlyReturn(t *testing.T) {
	failing := func(int, *sim.Machine) (*ukboot.VM, error) { return nil, errors.New("no boot") }
	closed := testPool(t, Config{})
	closed.Close()
	for _, tc := range []struct {
		name   string
		p      *Pool
		shards int
	}{
		{"closed", closed, 1},
		{"boot-fails", newPool(failing, nil, Config{}), 1},
		{"boot-fails-sharded", newPool(failing, nil, Config{}), 2},
	} {
		cs := NewChunks(2)
		f := NewFeed(cs)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := range 10 * chunkLen {
				f.Push(Request{Arrival: time.Duration(i + 1)})
			}
			f.Close()
		}()
		if _, err := tc.p.ServeWith(f, ServeOpts{Shards: tc.shards}); err == nil {
			t.Errorf("%s: serve succeeded", tc.name)
		}
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: the producer is still waiting for a chunk", tc.name)
		}
		if p := cs.Peak(); p > 2 {
			t.Errorf("%s: %d chunks out at once, the list holds 2", tc.name, p)
		}
	}
}
