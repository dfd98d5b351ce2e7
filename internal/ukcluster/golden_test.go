package ukcluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"unikraft/internal/netstack"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/serve_golden.json from the current code")

const goldenPath = "testdata/serve_golden.json"

// goldenCase is one cluster shape of the differential: a config built
// over a policy and a per-host core count, and the trace it serves.
type goldenCase struct {
	name  string
	cfg   func(p Policy, cores int) Config
	trace func() ukpool.Workload
}

// goldenPools builds each host's pool the way the SDK does for a plan:
// the VM hazard on a host-distinct sub-seed, the slow window on the
// host the plan slows.
func goldenPools(t testing.TB, plan *ukfault.Plan) func(host int) (*ukpool.Pool, error) {
	return func(host int) (*ukpool.Pool, error) {
		opts := testPoolOpts()
		if plan != nil && plan.VM.Hazard > 0 {
			opts = append(opts, ukpool.WithCrashHazard(plan.VM.Hazard, ukfault.Mix(plan.Seed, uint64(host))))
		}
		if sl, ok := plan.SlowOf(host); ok {
			opts = append(opts, ukpool.WithSlowdown(sl.From, sl.To, sl.Factor))
		}
		return ukpool.New(hostBoot(t, host), opts...), nil
	}
}

func goldenCases(t testing.TB) []goldenCase {
	// A spill-and-drain fleet: two of four hosts serve from the start,
	// the flash crowd spills onto the standbys by snapshot handoff.
	fleet := func(plan *ukfault.Plan) func(p Policy, cores int) Config {
		return func(p Policy, cores int) Config {
			return Config{
				Hosts: 4, Cores: cores, InitialActive: 2, MinActive: 1, Policy: p,
				Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
				DrainAfter: 4,
				Faults:     plan,
				NewPool:    goldenPools(t, plan),
			}
		}
	}
	flash := func() ukpool.Workload { return flashTrace(40_000) }
	return []goldenCase{
		{"no-plan", fleet(nil), flash},
		{"crash-rejoin", fleet(ukfault.New(19).
			CrashHostRejoin(1, 250*time.Millisecond, 60*time.Millisecond).
			WithVMHazard(1e-3)), flash},
		{"crash-during-handoff", func(p Policy, cores int) Config {
			cfg := fleet(ukfault.New(17).CrashHost(2, 260*time.Millisecond))(p, cores)
			cfg.Link = Link{BytesPerSec: 4 << 20, RTT: 200 * time.Microsecond}
			return cfg
		}, flash},
		{"partition-loss", fleet(ukfault.New(29).
			PartitionHost(1, 220*time.Millisecond, 280*time.Millisecond).
			DegradeLink(0, 280*time.Millisecond, 330*time.Millisecond, 20*time.Microsecond, 0.05)), flash},
		{"drain-requeue", func(p Policy, cores int) Config {
			return Config{
				Hosts: 3, Cores: cores, InitialActive: 3, MinActive: 1, Policy: p,
				Link:     Link{RTT: 20 * time.Millisecond},
				LowWater: 4, HighWater: 1 << 20,
				DrainAfter: 2,
				NewPool:    goldenPools(t, nil),
			}
		}, func() ukpool.Workload { return ukpool.NewPoisson(13, 2000, 4000, 128) }},
		{"router-bound-drain", func(p Policy, cores int) Config {
			// The router, not the hosts, is the bottleneck: forwards leave
			// it long after they reached it, so each drain finds many
			// still on their way to the host it retires, out of order.
			return Config{
				Hosts: 3, Cores: cores, InitialActive: 3, MinActive: 1, Policy: p,
				Router:     netstack.RouterModel{ExtraCycles: 36_000},
				EstService: 12 * time.Microsecond,
				Link:       Link{RTT: 2 * time.Microsecond},
				LowWater:   4, HighWater: 1 << 20,
				DrainAfter: 2,
				NewPool:    goldenPools(t, nil),
			}
		}, func() ukpool.Workload { return &mixedSizes{w: ukpool.NewPoisson(23, 150_000, 20_000, 128)} }},
		{"overload-control", func(p Policy, cores int) Config {
			cfg := overloadTestConfig(t)
			cfg.Policy, cfg.Cores = p, cores
			cfg.DefaultDeadline = 10 * time.Millisecond
			cfg.AdmitTarget = time.Millisecond
			cfg.RetryThrottleRatio = 0.05
			cfg.Faults = ukfault.New(17).PartitionHost(1, 60*time.Millisecond, 120*time.Millisecond)
			return cfg
		}, func() ukpool.Workload {
			w := overloadTestTrace(30_000, 200_000, 0.3, 10*time.Millisecond)
			return w.Sessions(256)
		}},
		{"slow-host", fleet(ukfault.New(41).Slow(1, 210*time.Millisecond, 300*time.Millisecond, 4)), flash},
	}
}

// mixedSizes gives the requests of w payloads from 128 B to 64 KB, so
// serialization on the link reorders forwards between router and host.
type mixedSizes struct {
	w ukpool.Workload
	i int
}

func (m *mixedSizes) Next() (ukpool.Request, bool) {
	req, ok := m.w.Next()
	m.i++
	req.Bytes = 128 + m.i*7919%(64<<10)
	return req, ok
}

// serveWithin serves w on c and fails the test, with every goroutine's
// stack, if the serve has not returned within d: a wedged serve is a
// failure, not a hung test binary.
func serveWithin(t *testing.T, c *Cluster, w ukpool.Workload, d time.Duration) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.Serve(w)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.rep
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("serve still running after %v\n%s", d, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// goldenReports serves every case under every policy and core count
// and renders each report in full, unexported histogram buckets
// included.
func goldenReports(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, gc := range goldenCases(t) {
		for _, p := range []Policy{LeastLoaded, RoundRobin, ConsistentHash} {
			for _, cores := range []int{1, 2} {
				c, err := New(gc.cfg(p, cores))
				if err != nil {
					t.Fatal(err)
				}
				rep := serveWithin(t, c, gc.trace(), 5*time.Minute)
				c.Close()
				out[fmt.Sprintf("%s/cores=%d/%s", p, cores, gc.name)] = fmt.Sprintf("%#v", *rep)
			}
		}
	}
	return out
}

// TestServeGolden is the differential against the report every cluster
// shape produced when it was recorded: three policies, one and two
// cores per host, and a fault, overload or drain case each — at the
// default GOMAXPROCS and at one P, where host loops and the front door
// share a single thread.
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
