package experiments

import (
	"fmt"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

func init() {
	register("chaos", "Deterministic fault injection: host crashes at peak load, failover, retries and recovery", chaosServe)
}

// chaosRequests is the headline trace size: the failover claim (lose a
// host at peak load, keep goodput >= 99.9%) has to hold at front-door
// scale, so the main row pushes ten million requests through an
// eight-host cluster and kills a host mid-flash-crowd.
const chaosRequests = 10_000_000

// chaosGoodputFloor is the headline gate: out of every thousand
// requests offered while a host fail-stops at peak load, at most one
// may be lost to the crash.
const chaosGoodputFloor = 0.999

// chaosSeries is the latency-series window recovery analysis reads:
// fine enough to localize the post-crash p99 excursion, coarse enough
// that per-window histograms stay populated at the headline rate.
const chaosSeries = 50 * time.Millisecond

// chaosServe injects seeded, virtual-time fault plans into the cluster
// serve: fail-stop host crashes with detection/retry/replacement at
// the front door, per-request VM crash hazard with in-pool restart and
// a circuit breaker, and admission-control shedding when the surviving
// capacity drowns. Everything is deterministic — the same plan against
// the same trace reproduces the same report byte-for-byte.
func chaosServe(env *Env) (*Result, error) {
	bootCfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return nil, err
	}

	// Host pools: the cluster experiment's fork-boot fleets, plus the
	// per-window latency series that recovery analysis reads. extra
	// carries per-row options (VM crash hazard, breaker threshold).
	hostPool := func(extra ...ukpool.Option) func(host int) (*ukpool.Pool, error) {
		opts := burstFleetOpts(append(extra, ukpool.WithLatencySeries(chaosSeries))...)
		return func(host int) (*ukpool.Pool, error) {
			ctx, err := ukboot.NewContext(bootCfg)
			if err != nil {
				return nil, err
			}
			return ukpool.NewFleet(ctx, ukpool.HostMachines(0, host), true, opts...)
		}
	}

	// Activation by snapshot handoff — the same re-handoff that seeds a
	// replacement host after a crash detection.
	handoff, err := probeHandoff(env, bootCfg)
	if err != nil {
		return nil, err
	}

	// The trace: the cluster experiment's diurnal shape, but with the
	// flash crowd at ~75% of full-fleet capacity (8 hosts x 2 cores at
	// ~47us/request is ~340K req/s) instead of 150% — failover is about
	// losing a host the fleet could have spared, not about drowning the
	// fleet and blaming the crash.
	shape := func(n int) (w ukpool.Workload, flashAt, flashDur time.Duration) {
		total := time.Duration(n/65_000) * time.Second
		flashAt, flashDur = total/5, total/8
		return ukpool.NewDiurnal(43, 40_000, 90_000, total,
			flashAt, flashDur, 250_000, 4096, n, 256), flashAt, flashDur
	}

	serve := func(plan *ukfault.Plan, hosts, active, n int, extra ...ukpool.Option) (*ukcluster.Report, error) {
		c, err := ukcluster.New(ukcluster.Config{
			Hosts: hosts, Cores: 2, InitialActive: active, MinActive: active,
			Policy: ukcluster.LeastLoaded, NewPool: hostPool(extra...),
			EstService: 47 * time.Microsecond,
			Activation: handoff,
			Faults:     plan,
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		w, _, _ := shape(n)
		return c.Serve(w)
	}

	res := &Result{
		ID: "chaos", Title: Title("chaos"),
		Headers: []string{"configuration", "hosts", "requests", "served", "goodput",
			"crashes", "vm-crashes", "retried", "failed", "shed", "replacements",
			"recovery", "lat-p99"},
	}
	row := func(name string, rep *ukcluster.Report, recovery string) {
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", rep.Hosts),
			fmt.Sprintf("%d", rep.Offered),
			fmt.Sprintf("%d", rep.Pool.Requests),
			fmt.Sprintf("%.3f%%", 100*rep.Goodput()),
			fmt.Sprintf("%d", rep.Crashes),
			fmt.Sprintf("%d", rep.Pool.Crashes),
			fmt.Sprintf("%d", rep.Retried+rep.Pool.Retried),
			fmt.Sprintf("%d", rep.Failed+rep.Pool.Failed),
			fmt.Sprintf("%d", rep.Shed),
			fmt.Sprintf("%d", rep.Replacements),
			recovery,
			rep.Pool.Latency.Quantile(0.99).Round(time.Microsecond).String(),
		})
	}

	// Headline: kill host 1 — serving since t=0, loaded — in the middle
	// of the flash crowd, with six standby hosts for the detector to
	// re-handoff onto.
	_, flashAt, flashDur := shape(chaosRequests)
	crashAt := flashAt + flashDur/2
	headlinePlan := ukfault.New(977).CrashHost(1, crashAt)
	headline, err := serve(headlinePlan, 8, 2, chaosRequests)
	if err != nil {
		return nil, err
	}
	recovery := recoveryTime(headline.Pool.Series, crashAt)
	row("chaos-10M/crash-at-peak", headline, recovery.Round(time.Millisecond).String())

	const sideRequests = 2_000_000
	_, sFlashAt, sFlashDur := shape(sideRequests)
	sCrashAt := sFlashAt + sFlashDur/2

	// Crash + rejoin: the host comes back as a cold standby after the
	// crowd passes and can be re-activated by a later spill.
	rejoinRep, err := serve(ukfault.New(977).CrashHostRejoin(1, sCrashAt, sFlashDur), 8, 2, sideRequests)
	if err != nil {
		return nil, err
	}
	row("chaos-2M/crash+rejoin", rejoinRep, recoveryTime(rejoinRep.Pool.Series, sCrashAt).Round(time.Millisecond).String())

	// VM hazard: every request carries an independent chance of
	// crashing its serving instance mid-flight. Partial work is charged,
	// the instance restarts by fork, the request retries in-pool.
	hazardRep, err := serve(nil, 8, 2, sideRequests,
		ukpool.WithCrashHazard(1e-4, ukfault.Mix(977, 0xBAD)))
	if err != nil {
		return nil, err
	}
	row("chaos-2M/vm-hazard-1e-4", hazardRep, "-")

	// Hazard storm: a crash rate high enough that some instances crash
	// repeatedly and the circuit breaker retires them instead of
	// restarting forever.
	stormRep, err := serve(nil, 8, 2, sideRequests,
		ukpool.WithCrashHazard(1e-2, ukfault.Mix(977, 0xBAD)),
		ukpool.WithBreaker(2))
	if err != nil {
		return nil, err
	}
	row("chaos-2M/hazard-storm+breaker", stormRep, "-")

	// No standby to fail over to: a two-host cluster loses half its
	// capacity at peak and admission control sheds what the survivor
	// cannot absorb — shed, not silently dropped.
	shedRep, err := serve(ukfault.New(977).CrashHost(1, sCrashAt), 2, 2, sideRequests)
	if err != nil {
		return nil, err
	}
	row("chaos-2M/crash-no-standby", shedRep, recoveryTime(shedRep.Pool.Series, sCrashAt).Round(time.Millisecond).String())

	res.Notes = append(res.Notes,
		fmt.Sprintf("headline: host 1 fail-stops at %v (mid-flash, peak load); detection via missed probes, %d forwards retried onto survivors, %d replacement activated by snapshot re-handoff, goodput %.4f%%",
			crashAt.Round(time.Millisecond), headline.Retried, headline.Replacements, 100*headline.Goodput()),
		fmt.Sprintf("recovery: cluster p99 back inside its pre-crash band %v after the crash (%v windows)", recovery.Round(time.Millisecond), chaosSeries),
		fmt.Sprintf("accounting: offered = served + shed + failed holds on every row (headline dropped=%d); shed requests got a fast reject at the door, failed ones exhausted the retry policy or died in the wreck", headline.Dropped()),
		fmt.Sprintf("hazard storm: %d instances breaker-retired after consecutive mid-request crashes instead of restarting forever", stormRep.Pool.BreakerTrips),
		"model: fail-stop only — a crashed host loses its in-flight requests (counted failed), forwards in flight on the link retry against survivors; no byzantine faults, no partial failures",
	)
	if g := headline.Goodput(); g < chaosGoodputFloor {
		return nil, fmt.Errorf("chaos: headline goodput %.4f below the %.3f floor (shed=%d failed=%d pool-failed=%d retried=%d offered=%d served=%d)",
			g, chaosGoodputFloor, headline.Shed, headline.Failed, headline.Pool.Failed, headline.Retried, headline.Offered, headline.Pool.Requests)
	}
	for _, rep := range []*ukcluster.Report{headline, rejoinRep, hazardRep, stormRep, shedRep} {
		if rep.Dropped() != 0 {
			return nil, fmt.Errorf("chaos: %d requests unaccounted for", rep.Dropped())
		}
	}
	return res, nil
}

// recoveryTime reads the per-window latency series and reports how long
// after crashAt the cluster-wide p99 stayed above its pre-crash band:
// the band is the worst windowed p99 seen strictly before the crash,
// and recovery ends at the close of the last window that exceeds it.
// Zero means the crash never pushed p99 outside what the trace had
// already shown.
func recoveryTime(series []ukpool.Histogram, crashAt time.Duration) time.Duration {
	crashWin := int(crashAt / chaosSeries)
	var band time.Duration
	for i := 0; i < crashWin && i < len(series); i++ {
		if series[i].Count == 0 {
			continue
		}
		if p := series[i].Quantile(0.99); p > band {
			band = p
		}
	}
	var recoveredAt time.Duration
	for i := crashWin; i < len(series); i++ {
		if series[i].Count == 0 {
			continue
		}
		if series[i].Quantile(0.99) > band {
			recoveredAt = time.Duration(i+1) * chaosSeries
		}
	}
	if recoveredAt == 0 {
		return 0
	}
	return recoveredAt - crashAt
}
