package ukpool

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
)

// steadyTrace builds a warm-hit-only trace: arrivals spaced far wider
// than the service time, so routing is identical whether the fleet is
// sharded or not.
func steadyTrace(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Arrival: time.Duration(i+1) * time.Millisecond, Bytes: 128}
	}
	return reqs
}

// TestServeParallelMatchesSequential: for a steady all-warm trace the
// sharded run produces the same ServeReport aggregates as sequential
// Serve — same requests, routing counts, latency and boot histograms,
// fleet sizes and makespan. The shard interleaving (ids i, i+shards,
// ...) boots the same instance set, so even the per-request service
// times line up.
func TestServeParallelMatchesSequential(t *testing.T) {
	boot := testBoot(t)
	trace := steadyTrace(1000)
	cfg := Config{MinWarm: 8, MaxInstances: 8, NoAutoscale: true}

	seqPool := newPool(boot, nil, cfg)
	defer seqPool.Close()
	seq, err := seqPool.Serve(NewTrace(trace))
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		parPool := newPool(boot, nil, cfg)
		par, err := parPool.ServeWith(NewTrace(trace), ServeOpts{Shards: shards})
		parPool.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("shards=%d: parallel report diverged from sequential:\n%v\nvs\n%v", shards, seq, par)
		}
	}
}

// TestServeEntriesAreOne: Serve is a caller of ServeWith, and a shard
// count of 0 or 1 is no sharding, so each row's entries must return
// DeepEqual reports from identically built pools. The last row carries what the SDK-level
// facade test used to check: on a steady all-warm trace the sharded
// engine reproduces the sequential report.
func TestServeEntriesAreOne(t *testing.T) {
	var bursty []Request
	for w := NewBursty(7, 20_000, 400_000, 100*time.Millisecond, 0.2, 20_000, 128); ; {
		req, ok := w.Next()
		if !ok {
			break
		}
		bursty = append(bursty, req)
	}
	type entry struct {
		name string
		call func(p *Pool, w Workload) (*Report, error)
	}
	serve := entry{"Serve", func(p *Pool, w Workload) (*Report, error) { return p.Serve(w) }}
	with := func(o ServeOpts) entry {
		return entry{fmt.Sprintf("ServeWith(%+v)", o),
			func(p *Pool, w Workload) (*Report, error) { return p.ServeWith(w, o) }}
	}
	burstyCfg := Config{MinWarm: 8, MaxInstances: 64}
	steadyCfg := Config{MinWarm: 4, MaxInstances: 4, NoAutoscale: true}
	for _, tc := range []struct {
		name    string
		trace   []Request
		cfg     Config
		entries []entry
	}{
		{"one-loop", bursty, burstyCfg,
			[]entry{serve, with(ServeOpts{}), with(ServeOpts{Shards: 1}), with(ServeOpts{Shards: -1})}},
		{"sharded", bursty, burstyCfg,
			[]entry{with(ServeOpts{Shards: 4}), with(ServeOpts{Shards: 4})}},
		{"steady-sharded-is-sequential", steadyTrace(400), steadyCfg,
			[]entry{serve, with(ServeOpts{Shards: 2})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Report
			for _, e := range tc.entries {
				p := testPool(t, tc.cfg)
				rep, err := e.call(p, NewTrace(tc.trace))
				p.Close()
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if rep.Requests != len(tc.trace) {
					t.Fatalf("%s served %d of %d requests", e.name, rep.Requests, len(tc.trace))
				}
				if ref == nil {
					ref = rep
				} else if !reflect.DeepEqual(ref, rep) {
					t.Errorf("%s diverged from %s:\n%v\nvs\n%v", e.name, tc.entries[0].name, rep, ref)
				}
			}
		})
	}
}

// TestServeParallelDeterministic: a bursty trace through a sharded
// fleet yields bit-for-bit the same merged report on every run,
// regardless of goroutine scheduling.
func TestServeParallelDeterministic(t *testing.T) {
	var trace []Request
	w := NewBursty(7, 20_000, 400_000, 100*time.Millisecond, 0.2, 20_000, 128)
	for {
		req, ok := w.Next()
		if !ok {
			break
		}
		trace = append(trace, req)
	}
	run := func() *Report {
		p := testPool(t, Config{MinWarm: 8, MaxInstances: 64})
		defer p.Close()
		rep, err := p.ServeWith(NewTrace(trace), ServeOpts{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded runs diverged:\n%v\nvs\n%v", a, b)
	}
	if a.Requests != len(trace) || a.Latency.Count != uint64(len(trace)) {
		t.Errorf("sharded run lost requests: served %d/%d", a.Requests, len(trace))
	}
}

// TestServeParallelIDsDisjoint: mixing sequential and sharded serves
// on one pool must never reissue an instance id — the id uniqueness
// spawn relies on is what keeps per-instance boot seeds distinct.
func TestServeParallelIDsDisjoint(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	base := testBoot(t)
	boot := func(id int, m *sim.Machine) (*ukboot.VM, error) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
		return base(id, m)
	}
	p := newPool(boot, nil, Config{MinWarm: 4, NoAutoscale: true})
	defer p.Close()
	if _, err := p.Serve(NewTrace(steadyTrace(100))); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ServeWith(NewTrace(steadyTrace(100)), ServeOpts{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// A sequential run afterwards must also stay clear of the shard ids.
	if _, err := p.Serve(NewTrace(steadyTrace(100))); err != nil {
		t.Fatal(err)
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("instance id %d booted %d times", id, n)
		}
	}
}

func TestServeParallelClosedPool(t *testing.T) {
	p := testPool(t, Config{MinWarm: 1})
	p.Close()
	if _, err := p.ServeWith(NewTrace(steadyTrace(4)), ServeOpts{Shards: 2}); err == nil {
		t.Error("sharded serve on closed pool succeeded")
	}
}

// TestZeroCopyAndKickBatchCostModel: the Spec-level zero-copy and kick
// batching options must shorten per-request service time, visible in
// the latency histogram of an uncontended run.
func TestZeroCopyAndKickBatchCostModel(t *testing.T) {
	serve := func(cfg Config) *Report {
		cfg.MinWarm, cfg.NoAutoscale = 2, true
		p := testPool(t, cfg)
		defer p.Close()
		rep, err := p.Serve(NewTrace(steadyTrace(200)))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := serve(Config{})
	zc := serve(Config{ZeroCopy: true})
	batched := serve(Config{ZeroCopy: true, KickBatch: 16})
	if zc.Latency.Sum >= base.Latency.Sum {
		t.Errorf("zero-copy total latency %v >= copying %v", zc.Latency.Sum, base.Latency.Sum)
	}
	if batched.Latency.Sum >= zc.Latency.Sum {
		t.Errorf("kick-batched total latency %v >= unbatched %v", batched.Latency.Sum, zc.Latency.Sum)
	}
}

// TestRetireKeepsFleetIndexed: retiring from the middle of the fleet
// (via the coldest end of the idle deque) must keep every fleet index
// consistent — a corrupted index would retire the wrong instance later.
func TestRetireKeepsFleetIndexed(t *testing.T) {
	p := testPool(t, Config{MinWarm: 6, NoAutoscale: true})
	defer p.Close()
	if _, err := p.Serve(NewTrace(nil)); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	for i := 0; i < 3; i++ {
		inst := p.idle.popFront()
		p.dropSlot(inst)
		inst.vm.Close()
	}
	for i, inst := range p.fleet {
		if inst.fleetIdx != i {
			t.Errorf("fleet[%d].fleetIdx = %d", i, inst.fleetIdx)
		}
	}
	if len(p.fleet) != 3 || p.idle.len() != 3 {
		t.Errorf("size=%d idle=%d after 3 retirements, want 3/3", len(p.fleet), p.idle.len())
	}
	p.mu.Unlock()
}

// TestHistogramMerge: merging shard histograms equals recording the
// union directly.
func TestHistogramMerge(t *testing.T) {
	var whole, a, b Histogram
	for i := 1; i <= 2000; i++ {
		d := time.Duration(i*i%977+1) * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	var merged Histogram
	merged.merge(&a)
	merged.merge(&b)
	if !reflect.DeepEqual(&whole, &merged) {
		t.Errorf("merge diverged: %v vs %v", &whole, &merged)
	}
	// Merging an empty histogram is a no-op.
	before := merged
	var empty Histogram
	merged.merge(&empty)
	if !reflect.DeepEqual(&before, &merged) {
		t.Error("merging empty histogram changed state")
	}
}

// TestShardTracesMatchRoundRobin: a sharded serve deals requests
// round-robin through one chunked feed, and the readers it hands its
// shards — over a *Trace, a streaming generator, or a feed pushed by
// hand — yield, shard for shard, the sequence per-shard copies
// parts[i%shards] would hold. The shards read concurrently, as serves
// do: the feed holds a bounded number of chunks, so one shard cannot
// read its whole share before another starts. The source is left
// drained either way.
func TestShardTracesMatchRoundRobin(t *testing.T) {
	const n = 3*chunkLen + 1000 // several chunks and a partial last one
	gen := func() Workload { return NewDiurnal(3, 10_000, 40_000, time.Second, 0, 0, 0, 64, n, 256) }
	var all []Request
	g := gen()
	for req, ok := g.Next(); ok; req, ok = g.Next() {
		all = append(all, req)
	}
	sources := map[string]func() Workload{
		"trace":     func() Workload { return NewTrace(all) },
		"generator": gen,
		"trace-read-from": func() Workload {
			tr := NewTrace(append(make([]Request, 5), all...))
			for i := 0; i < 5; i++ {
				tr.Next()
			}
			return tr
		},
		"feed": func() Workload {
			f := NewFeed(NewChunks(2))
			go func() {
				for _, req := range all {
					f.Push(req)
				}
				f.Close()
			}()
			return f
		},
	}
	for name, source := range sources {
		for _, shards := range []int{2, 3, 8} {
			want := make([][]Request, shards)
			for i, req := range all {
				want[i%shards] = append(want[i%shards], req)
			}
			w := source()
			var wg sync.WaitGroup
			parts := dealShards(w, shards, &wg)
			got := make([][]Request, shards)
			wg.Add(shards)
			for s, r := range parts {
				go func() {
					defer wg.Done()
					for req, ok := r.Next(); ok; req, ok = r.Next() {
						got[s] = append(got[s], req)
					}
				}()
			}
			wg.Wait()
			for s := range parts {
				if !reflect.DeepEqual(got[s], want[s]) {
					t.Errorf("%s, shards=%d: shard %d saw %d requests, want %d, or another order", name, shards, s, len(got[s]), len(want[s]))
				}
			}
			if _, ok := w.(*Feed); !ok {
				if _, ok := w.Next(); ok {
					t.Errorf("%s, shards=%d: the sharded workload still has requests", name, shards)
				}
			}
		}
	}
}
