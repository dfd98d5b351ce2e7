package ukpool

import (
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
)

// overloadCfg pins one instance per core with a fixed service cost
// (~47us/request), so a 2.5x open-loop trace genuinely overloads the
// queue instead of hiding behind fleet elasticity.
var overloadCfg = Config{MinWarm: 2, MaxInstances: 2, NoAutoscale: true,
	SyscallsPerRequest: 4, AppCycles: 170_000}

// overloadTrace: ~2 cores / 47us is ~42K req/s capacity; offer 100K.
func overloadTrace(n int, deadline time.Duration) *Arrivals {
	w := NewOverload(31, 100_000, n, 256)
	if deadline > 0 {
		w.Deadlines(deadline, 10*deadline)
	}
	return w
}

// TestDeadlineNeverServesExpired: with per-request deadlines the pool
// must drop expired queue entries before charging any service time —
// so every completed request was dispatched while still live, and no
// recorded latency can exceed deadline + one service time. Without the
// pre-dispatch expiry check, overload pushes completions seconds past
// their deadlines.
func TestDeadlineNeverServesExpired(t *testing.T) {
	const deadline, offered = 5 * time.Millisecond, 50_000
	p := testPool(t, overloadCfg)
	defer p.Close()
	rep, err := p.Serve(overloadTrace(offered, deadline))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired == 0 {
		t.Fatal("2.5x overload with a 5ms deadline expired nothing")
	}
	if rep.Completed() == 0 {
		t.Fatal("deadline queue served nothing")
	}
	// Latency histogram buckets are log-spaced; 4x the deadline bounds
	// the bucket edge above deadline + service time with margin.
	if frac := rep.Latency.FractionBelow(4 * deadline); frac < 1 {
		t.Errorf("%.4f of completions exceeded the deadline + service bound — expired requests were served", 1-frac)
	}
	if rep.Requests != offered {
		t.Errorf("conservation broken: %d requests counted, %d offered", rep.Requests, offered)
	}
	if uint64(rep.Completed()) != rep.Latency.Count {
		t.Errorf("latency count %d != completed %d", rep.Latency.Count, rep.Completed())
	}
}

// TestOverloadShardOneIdentity: a serve with one shard must
// reproduce sequential Serve byte-for-byte with the whole overload
// surface armed — deadlines, brownout, a slowdown window.
func TestOverloadShardOneIdentity(t *testing.T) {
	cfg := overloadCfg
	cfg.BrownoutWater = 16
	cfg.Slow = ukfault.SlowHost{Window: ukfault.Window{From: 50 * time.Millisecond, To: 150 * time.Millisecond}, Factor: 2}

	seqPool := testPool(t, cfg)
	defer seqPool.Close()
	seq, err := seqPool.Serve(overloadTrace(30_000, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	parPool := testPool(t, cfg)
	defer parPool.Close()
	par, err := parPool.ServeWith(overloadTrace(30_000, 5*time.Millisecond), ServeOpts{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("1-shard overload serve diverged from sequential:\n%v\nvs\n%v", seq, par)
	}
	if seq.Expired == 0 || seq.Browned == 0 {
		t.Errorf("overload path never engaged (expired=%d browned=%d)", seq.Expired, seq.Browned)
	}
}

// TestOverloadShardedDeterminism: the sharded overload path — expiry,
// brownout, per-shard queues — reproduces bit-for-bit across runs.
func TestOverloadShardedDeterminism(t *testing.T) {
	const offered = 30_000
	run := func() *Report {
		cfg := overloadCfg
		cfg.BrownoutWater = 16
		p := testPool(t, cfg)
		defer p.Close()
		rep, err := p.ServeWith(overloadTrace(offered, 5*time.Millisecond), ServeOpts{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded overload runs diverged:\n%v\nvs\n%v", a, b)
	}
	if a.Requests != offered {
		t.Errorf("conservation broken: %d requests counted, %d offered", a.Requests, offered)
	}
}

// TestBrownoutDegradesBeforeDropping: past the queue-depth trigger the
// pool serves half-work responses instead of letting entries expire —
// more completions, fewer expiries, Browned accounting for the
// degraded ones.
func TestBrownoutDegradesBeforeDropping(t *testing.T) {
	serve := func(brownout int) *Report {
		cfg := overloadCfg
		cfg.BrownoutWater = brownout
		p := testPool(t, cfg)
		defer p.Close()
		rep, err := p.Serve(overloadTrace(50_000, 5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve(0)
	browned := serve(16)
	if browned.Browned == 0 {
		t.Fatal("brownout never engaged under 2.5x overload")
	}
	if browned.Completed() <= plain.Completed() {
		t.Errorf("brownout served %d <= plain %d under identical overload",
			browned.Completed(), plain.Completed())
	}
	if browned.Expired >= plain.Expired {
		t.Errorf("brownout expired %d >= plain %d — degrading absorbed nothing",
			browned.Expired, plain.Expired)
	}
}

// TestDeadlineFreeIdentity: a trace without deadlines through a pool
// with brownout disarmed must be byte-identical to the same pool before
// this layer existed — i.e. the overload fields stay zero and the
// accounting identity reduces to the old one.
func TestDeadlineFreeIdentity(t *testing.T) {
	p := testPool(t, overloadCfg)
	defer p.Close()
	rep, err := p.Serve(overloadTrace(20_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired != 0 || rep.Browned != 0 {
		t.Errorf("deadline-free serve recorded expired=%d browned=%d", rep.Expired, rep.Browned)
	}
	if rep.Completed() != rep.Requests-rep.Failed {
		t.Errorf("completed %d != requests %d - failed %d", rep.Completed(), rep.Requests, rep.Failed)
	}
}
