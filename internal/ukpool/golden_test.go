package ukpool

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"unikraft/internal/ukfault"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/serve_golden.json from the current code")

const goldenPath = "testdata/serve_golden.json"

// goldenCase is one pool shape of the differential: a config, the
// trace it serves and the fail-stop cutoff (0: none).
type goldenCase struct {
	name    string
	cfg     Config
	trace   func() Workload
	crashAt time.Duration
}

// delayedOrigins stamps every request of w with an Origin up to 2.5ms
// before its Arrival, as the cluster router does for forwarded
// requests: latency and the default deadline run from the origin.
type delayedOrigins struct {
	w Workload
	i int
}

func (d *delayedOrigins) Next() (Request, bool) {
	req, ok := d.w.Next()
	d.i++
	delay := min(time.Duration(d.i*7919%2500)*time.Microsecond, req.Arrival-1)
	req.Origin = req.Arrival - delay
	return req, ok
}

// stormTrace is a 16-request storm at 1ms, then a request every 50us:
// against two warm instances with ~0.55ms of service and a 2-boot
// burst, a cutoff at 1.2ms catches requests in service, waiting on a
// cold boot, queued and not yet delivered.
func stormTrace() Workload {
	var reqs []Request
	for range 16 {
		reqs = append(reqs, Request{Arrival: time.Millisecond, Bytes: 256})
	}
	for i := range 100 {
		reqs = append(reqs, Request{Arrival: time.Millisecond + time.Duration(i+1)*50*time.Microsecond, Bytes: 256})
	}
	return NewTrace(reqs)
}

func goldenCases() []goldenCase {
	brownout := overloadCfg
	brownout.BrownoutWater = 16
	origin := overloadCfg
	origin.DefaultDeadline = 2 * time.Millisecond
	bursty := func() Workload { return NewBursty(7, 20_000, 300_000, 50*time.Millisecond, 0.2, 20_000, 256) }
	slow := Config{MinWarm: 4, MaxInstances: 32,
		Slow: ukfault.SlowHost{Window: ukfault.Window{From: 40 * time.Millisecond, To: 90 * time.Millisecond}, Factor: 3}}
	slowOpen := slow
	slowOpen.Slow.To = 0
	return []goldenCase{
		{"brownout", brownout, func() Workload { return overloadTrace(20_000, 5*time.Millisecond) }, 0},
		{"deadline-from-origin", origin, func() Workload {
			return &delayedOrigins{w: NewOverload(31, 100_000, 20_000, 256)}
		}, 0},
		{"breaker", Config{MinWarm: 4, MaxInstances: 16, BreakerAfter: 1,
			Faults: ukfault.VMFaults{Hazard: 1}, FaultSeed: 5}, func() Workload {
			return NewPoisson(5, 20_000, 2_000, 256)
		}, 0},
		{"recycle", Config{MinWarm: 1, MaxInstances: 1, NoAutoscale: true}, func() Workload {
			return NewPoisson(5, 200_000, 12_000, 64)
		}, 0},
		{"slow-window", slow, bursty, 0},
		{"slow-until-end", slowOpen, bursty, 0},
		{"fail-stop", Config{MinWarm: 2, MaxInstances: 4, ColdBurst: 2, NoAutoscale: true,
			SyscallsPerRequest: 4, AppCycles: 2_000_000}, stormTrace, 1200 * time.Microsecond},
	}
}

// goldenReports serves every case through Serve (ServeWith for a
// fail-stop, which Serve cannot ask for) and through two shards, and
// renders each report in full, unexported histogram buckets included.
func goldenReports(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, gc := range goldenCases() {
		for _, shards := range []int{1, 2} {
			p := testPool(t, gc.cfg)
			var rep *Report
			var err error
			if shards == 1 && gc.crashAt == 0 {
				rep, err = p.Serve(gc.trace())
			} else {
				rep, err = p.ServeWith(gc.trace(), ServeOpts{Shards: shards, CrashAt: gc.crashAt})
			}
			p.Close()
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", gc.name, shards, err)
			}
			out[fmt.Sprintf("%s/shards=%d", gc.name, shards)] = fmt.Sprintf("%#v", *rep)
		}
	}
	return out
}

// TestServeGolden is the differential against the report every
// pool shape produced when it was recorded: the overload, fault,
// recycling and slow-host paths the cluster golden reaches only through
// its hosts, each served on one loop and on two shards — at the
// default GOMAXPROCS and at one P.
func TestServeGolden(t *testing.T) {
	if *updateGolden {
		raw, err := json.MarshalIndent(goldenReports(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T) {
		got := goldenReports(t)
		if len(got) != len(want) {
			t.Errorf("%d reports, golden has %d", len(got), len(want))
		}
		for name, g := range got {
			if g != want[name] {
				t.Errorf("%s diverged from the golden report:\n got %s\nwant %s", name, g, want[name])
			}
		}
	}
	t.Run("default", check)
	t.Run("one-p", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}
