package unikraft

import (
	"slices"
	"time"

	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukpool"
)

// Cluster is the multi-host serving layer: N simulated hosts, each
// running its own warm pool of one Spec, behind a front-door router
// with autoscaling and snapshot-image handoff — see Runtime.NewCluster.
type Cluster = ukcluster.Cluster

// ClusterReport is the outcome of one Cluster.Serve run: the merged
// pool report (end-to-end latencies), control-plane counters
// (activations, handoffs, drains, requeues) and a per-host breakdown.
type ClusterReport = ukcluster.Report

// ClusterHostReport is one host's share of a cluster serve.
type ClusterHostReport = ukcluster.HostReport

// ClusterOption tunes a Cluster at construction.
type ClusterOption func(*clusterSettings)

// clusterSettings is what the options write: the control plane's own
// Config, filled in place, plus the two settings NewCluster turns into
// Config fields itself (activation pricing and the per-host pools).
type clusterSettings struct {
	cfg       ukcluster.Config
	noHandoff bool
	poolOpts  []PoolOption
}

// WithHosts sets the total host count, standby included (default 1).
func WithHosts(n int) ClusterOption {
	return func(c *clusterSettings) { c.cfg.Hosts = n }
}

// WithCoresPerHost sets each host's serving parallelism: its sub-trace
// runs over n deterministic event-loop shards (default 1).
func WithCoresPerHost(n int) ClusterOption {
	return func(c *clusterSettings) { c.cfg.Cores = n }
}

// WithActiveHosts sets how many hosts serve from the start; the rest
// are standby, activated when load spills (default: all of them).
func WithActiveHosts(n int) ClusterOption {
	return func(c *clusterSettings) { c.cfg.InitialActive = n }
}

// WithMinActiveHosts sets the scale-down floor (default 1). Host 0 —
// the template holder — is never drained regardless.
func WithMinActiveHosts(n int) ClusterOption {
	return func(c *clusterSettings) { c.cfg.MinActive = n }
}

// WithClusterLink prices the network between the front door and the
// hosts (default: 10 GbE, 40µs RTT). The same link carries snapshot
// images during handoff.
func WithClusterLink(bytesPerSec int64, rtt time.Duration) ClusterOption {
	return func(c *clusterSettings) {
		c.cfg.Link = ukcluster.Link{BytesPerSec: bytesPerSec, RTT: rtt}
	}
}

// WithoutHandoff disables snapshot-image handoff: standby hosts then
// activate by minting their template through the full boot pipeline
// remotely (the scale-out price handoff exists to avoid).
func WithoutHandoff() ClusterOption {
	return func(c *clusterSettings) { c.noHandoff = true }
}

// WithHostPoolOptions passes pool options (WithPoolWarm,
// WithPoolMaxInstances, ...) through to every host's pool.
func WithHostPoolOptions(opts ...PoolOption) ClusterOption {
	return func(c *clusterSettings) { c.poolOpts = append(c.poolOpts, opts...) }
}

// DiurnalWorkload is the cluster-scale trace shape: a Poisson process
// whose rate swings sinusoidally between baseRate and peakRate per
// period, spiking to flashRate inside [flashAt, flashAt+flashDur) — a
// flash crowd — with session keys drawn from a population of sessions
// (0 leaves requests anonymous; keys drive "hash" affinity).
func DiurnalWorkload(seed uint64, baseRate, peakRate float64, period time.Duration,
	flashAt, flashDur time.Duration, flashRate float64, sessions, n, bytes int) Workload {
	return ukpool.NewDiurnal(seed, baseRate, peakRate, period, flashAt, flashDur, flashRate, sessions, n, bytes)
}

// NewCluster builds a multi-host serving cluster for the spec. Each
// host gets its own pool — constructed exactly like Runtime.NewPool,
// with host-distinct deterministic instance seeds — and the front door
// balances per the spec's Affinity policy, autoscales the host set per
// its Placement bias, and (for SnapshotBoot specs) activates standby
// hosts by shipping the template snapshot image over the cluster link
// instead of re-minting it remotely.
//
//	spec := unikraft.NewSpec("nginx", unikraft.WithVMM("firecracker"),
//	    unikraft.WithSnapshotBoot(), unikraft.WithAffinity("least-loaded"))
//	c, err := rt.NewCluster(spec, unikraft.WithHosts(8), unikraft.WithActiveHosts(2))
//	report, err := c.Serve(unikraft.DiurnalWorkload(...))
//
// A cluster of one single-core host bypasses the front door entirely
// and reports byte-identically to NewPool(spec).Serve — clustering
// costs nothing until there is something to cluster.
func (rt *Runtime) NewCluster(s Spec, opts ...ClusterOption) (*Cluster, error) {
	r, err := rt.resolve(s)
	if err != nil {
		return nil, err
	}
	var set clusterSettings
	for _, opt := range opts {
		opt(&set)
	}
	cfg, faults := set.cfg, set.cfg.Faults
	// An SMP spec defaults each host's serving parallelism to its vCPU
	// count; WithCoresPerHost still overrides.
	if cfg.Cores == 0 && s.VCPUs > 1 {
		cfg.Cores = s.VCPUs
	}
	if cfg.Policy, err = ukcluster.PolicyByName(s.Affinity); err != nil {
		return nil, err
	}
	cfg.NewPool = func(host int, opts ...PoolOption) (*ukpool.Pool, error) {
		return rt.newHostPool(s, host, slices.Concat(set.poolOpts, opts)...)
	}
	if faults != nil {
		// Domain-separate admission draws per plan; a planless cluster
		// keeps seed 0 (the draws are keyed on request identity anyway).
		cfg.AdmitSeed = faults.Seed
	}
	if s.Placement == "pack" {
		cfg.HighWater = 32
		cfg.SpillAfter = 4
	}

	// Price standby activation off the spec's real boot economics: the
	// template snapshot's size and mint time, measured once here.
	if cfg.Hosts > 1 {
		img, err := ukbuild.Build(rt.Catalog(), r.profile, r.platform.Name, r.build)
		if err != nil {
			return nil, err
		}
		bootCfg := rt.bootConfig(r, s, img.Bytes)
		if s.SnapshotBoot && !set.noHandoff {
			e, err := rt.snapshotFor(bootCfg)
			if err != nil {
				return nil, err
			}
			cfg.Activation = ukcluster.HandoffActivation(e.snap)
		} else {
			// No template to ship: a spill boots the image remotely
			// through the whole pipeline. Measure one probe boot.
			ctx, err := ukboot.NewContext(bootCfg)
			if err != nil {
				return nil, err
			}
			vm, err := ctx.Boot(rt.newMachine())
			if err != nil {
				return nil, err
			}
			cfg.Activation = ukcluster.Activation{ColdBoot: vm.Report.Total()}
			vm.Close()
		}
	}
	return ukcluster.New(cfg)
}
