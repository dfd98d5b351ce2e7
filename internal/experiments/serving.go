package experiments

import (
	"fmt"
	"time"

	"unikraft/internal/core"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukplat"
	"unikraft/internal/ukpool"
)

func init() {
	register("serve", "Warm-pool serving: boot-on-demand nginx fleet under 1M-request traffic", serveDensity)
}

// servingRequests is the steady-trace size: the density/serving claim
// is only meaningful at scale, so the experiment pushes a million
// requests through one pool.
const servingRequests = 1_000_000

// firecrackerGuest links app for Firecracker with DCE and LTO and
// returns the boot configuration of the guest every serving experiment
// builds its fleets from. 8 MiB guests: density is the point — the
// paper's Fig 11 shows nginx needs single-digit MiB, and small guests
// keep a multi-hundred-instance fleet cheap on the host too.
func firecrackerGuest(env *Env, app string) (ukboot.Config, error) {
	profile, ok := core.AppByName(app)
	if !ok {
		return ukboot.Config{}, fmt.Errorf("app %s not registered", app)
	}
	img, err := ukbuild.Build(env.Catalog, profile, ukplat.KVMFirecracker.Name, ukbuild.Options{DCE: true, LTO: true})
	if err != nil {
		return ukboot.Config{}, err
	}
	backend, err := ukalloc.ResolveBackend(profile.Allocator)
	if err != nil {
		return ukboot.Config{}, err
	}
	return ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: img.Bytes,
		Allocator:  backend,
		NICs:       profile.NICs,
		Libs:       ukboot.ProfileLibs(profile.NICs, profile.Scheduler),
	}, nil
}

// burstFleet is the fleet shape the bursty, cluster and chaos traces
// share: a heavy request (~47us of app work) and a tight cold-burst
// allowance, so demand-driven boots alone cannot keep up and cold
// starts sit on the critical path during bursts.
var burstFleet = ukpool.Config{
	MinWarm: 8, MaxInstances: 256,
	SyscallsPerRequest: 4, AppCycles: 170_000, ColdBurst: 8,
	ScaleWindow: 10 * time.Millisecond,
}

// hostFleet is the ukcluster.Config.NewPool hook the cluster
// experiments share: each host owns a boot context (its own arena) and
// a pool of cfg with the host's fault fields applied, on the
// host-distinct deterministic seeds the public SDK derives too; fork
// makes it a fork-boot pool with its own template.
func hostFleet(bootCfg ukboot.Config, fork bool, cfg ukpool.Config) func(int, func(*ukpool.Config)) (*ukpool.Pool, error) {
	return func(host int, faults func(*ukpool.Config)) (*ukpool.Pool, error) {
		ctx, err := ukboot.NewContext(bootCfg)
		if err != nil {
			return nil, err
		}
		hostCfg := cfg
		faults(&hostCfg)
		return ukpool.New(ctx, ukpool.HostSeed(0, host), fork, hostCfg)
	}
}

// serveDensity converts the paper's boot-speed result (Fig 10/14) into
// the serving story: a warm pool of Firecracker nginx unikernels
// absorbing request-driven traffic, cold-booting and autoscaling as the
// trace demands. One steady Poisson trace of a million requests and one
// bursty trace that forces the autoscaler to work for its keep.
func serveDensity(env *Env) (*Result, error) {
	bootCfg, err := firecrackerGuest(env, "nginx")
	if err != nil {
		return nil, err
	}
	ctx, err := ukboot.NewContext(bootCfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "serve",
		Title: Title("serve"),
		Headers: []string{"trace", "requests", "offered", "served",
			"warm-hit", "cold", "queued", "peak-fleet",
			"boot-p50", "boot-p99", "coldboot-p50", "coldboot-p99",
			"lat-p50", "lat-p99"},
	}
	row := func(name string, offered float64, rep *ukpool.Report) {
		coldQ := func(q float64) string {
			if rep.ColdBoot.Count == 0 {
				return "-"
			}
			return rep.ColdBoot.Quantile(q).Round(time.Microsecond).String()
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", rep.Requests),
			krps(offered) + "/s",
			krps(rep.Throughput()) + "/s",
			fmt.Sprintf("%.2f%%", 100*rep.WarmHitRatio()),
			fmt.Sprintf("%d", rep.ColdBoots),
			fmt.Sprintf("%d", rep.Queued),
			fmt.Sprintf("%d", rep.PeakInstances),
			rep.Boot.Quantile(0.5).Round(time.Microsecond).String(),
			rep.Boot.Quantile(0.99).Round(time.Microsecond).String(),
			coldQ(0.5),
			coldQ(0.99),
			rep.Latency.Quantile(0.5).Round(time.Microsecond).String(),
			rep.Latency.Quantile(0.99).Round(time.Microsecond).String(),
		})
	}

	// Steady open-loop Poisson load: the warm set absorbs almost
	// everything; cold boots only appear in the tail of the arrival
	// distribution.
	steady, err := ukpool.New(ctx, 0, false, ukpool.Config{MinWarm: 8, MaxInstances: 256})
	if err != nil {
		return nil, err
	}
	defer steady.Close()
	const steadyRate = 250_000
	rep, err := steady.Serve(ukpool.NewPoisson(1, steadyRate, servingRequests, 256))
	if err != nil {
		return nil, err
	}
	row("poisson-steady", steadyRate, rep)
	steadyHit := rep.WarmHitRatio()

	// Bursty on/off load over the burst fleet shape: 5x rate flips every
	// period, so the bursts drive cold boots, queueing and both
	// autoscaler directions.
	bursty, err := ukpool.New(ctx, 0, false, burstFleet)
	if err != nil {
		return nil, err
	}
	defer bursty.Close()
	wl := ukpool.NewBursty(2, 50_000, 250_000, 200*time.Millisecond, 0.4, 250_000, 256)
	brep, err := bursty.Serve(wl)
	if err != nil {
		return nil, err
	}
	row("bursty-5x", 0.4*250_000+0.6*50_000, brep)

	res.Notes = append(res.Notes,
		fmt.Sprintf("steady warm-hit ratio %.2f%% (target >90%%); fleet autoscaled %d up / %d down on the bursty trace",
			100*steadyHit, brep.ScaleUps, brep.ScaleDowns),
		fmt.Sprintf("boot p50 %v ~ firecracker total of Fig 10 (%v VMM + guest); warm service is %s of a cold start",
			rep.Boot.Quantile(0.5).Round(time.Microsecond), ukplat.KVMFirecracker.VMMSetup,
			fmt.Sprintf("1/%.0f", float64(rep.Boot.Quantile(0.5))/float64(rep.Latency.Quantile(0.5)))),
	)
	return res, nil
}
