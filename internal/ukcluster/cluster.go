// Package ukcluster is the multi-host control plane: it scales the
// warm-pool serving layer (internal/ukpool) from one simulated host to
// a fleet of them. A Cluster owns N hosts — each with its own ukpool
// fleet, per-host machines and (during a serve) its own event-loop
// shard — behind a front-door L4/L7 router that balances requests
// across hosts (round-robin, least-loaded, or consistent-hash session
// affinity), autoscales the *host* set by spilling load onto standby
// hosts with hysteresis, and seeds newly activated hosts by
// snapshot-image handoff: the warm boot template minted on the seed
// host is shipped over a priced inter-host link so remote scale-out
// pays transfer + attach instead of a full cold template boot.
//
// Determinism is inherited from ukpool's sharded execution model. The
// front door is a single sequential pass over the trace that prices
// routing on the router's own machine, tracks per-host outstanding
// work with a fluid decay model (the router's view: it sees what it
// forwarded, not guest internals), and makes every placement, spill
// and drain decision. It is also a producer: each host's forwards wait
// in a small pending buffer, sorted by host arrival, until the front
// door's clock passes their arrival — nothing routed later can reach
// that host earlier — and are then released, in order, into fixed-size
// chunks of a ukpool.Feed that the host's pool reads on its own
// goroutine while routing goes on. Chunks come from a bounded free list
// the cluster owns, so the memory a serve holds follows the requests in
// flight, not the length of the trace. When every loop has finished the
// host reports merge in host order, exactly like Pool.ServeParallel
// merges shards. Same trace, same config, same report — regardless of
// goroutine scheduling — and a cluster of one single-core host is
// byte-identical to a plain Pool.Serve.
package ukcluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// Policy selects the front door's balancing decision for the first
// packet of each request.
type Policy int

const (
	// LeastLoaded routes to the host with the least outstanding work in
	// the router's fluid model (ties to the lowest host id). The
	// default: it absorbs skew the static policies cannot.
	LeastLoaded Policy = iota
	// RoundRobin cycles through the serving hosts in id order.
	RoundRobin
	// ConsistentHash pins each session key to a host via a virtual-node
	// hash ring, so a session keeps hitting the same host's caches as
	// the serving set grows and shrinks; anonymous requests (key 0)
	// fall back to least-loaded.
	ConsistentHash
)

// String names the policy the way flags and reports spell it.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case ConsistentHash:
		return "hash"
	default:
		return "least-loaded"
	}
}

// PolicyByName parses a policy name ("least-loaded", "round-robin",
// "hash").
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded, nil
	case "round-robin":
		return RoundRobin, nil
	case "hash", "consistent-hash":
		return ConsistentHash, nil
	}
	return 0, fmt.Errorf("ukcluster: unknown affinity policy %q (have least-loaded, round-robin, hash)", name)
}

// Link prices the network between the front door and the hosts (and
// between hosts, for snapshot-image handoff).
type Link struct {
	// BytesPerSec is the link bandwidth (default 1.25e9: 10 GbE).
	BytesPerSec int64
	// RTT is the round-trip time between any two boxes (default 40µs,
	// a same-rack figure).
	RTT time.Duration
}

// serialize is the store-and-forward serialization delay of bytes.
func (l Link) serialize(bytes int) time.Duration {
	if bytes <= 0 || l.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(l.BytesPerSec) * float64(time.Second))
}

// ForwardDelay is the one-way latency of forwarding a request of the
// given size to a host: half an RTT plus serialization.
func (l Link) ForwardDelay(bytes int) time.Duration {
	return l.RTT/2 + l.serialize(bytes)
}

// Transfer is the cost of shipping a bulk payload host-to-host: a full
// RTT (request + first byte back) plus serialization.
func (l Link) Transfer(bytes int) time.Duration {
	return l.RTT + l.serialize(bytes)
}

// Activation prices bringing a standby host into the serving set.
type Activation struct {
	// Handoff enables snapshot-image handoff: the template image ships
	// over the link and is attached, instead of being re-minted by a
	// full boot pipeline on the new host.
	Handoff bool
	// ImageBytes is the serialized template size: the COW-marked pages
	// plus the heap write-set and region metadata (what
	// ukboot.Snapshot captured).
	ImageBytes int
	// ColdBoot is the full template mint on the remote host — the
	// no-handoff price of scale-out (a template boot through the whole
	// pipeline).
	ColdBoot time.Duration
	// Attach is the receive-side cost of installing a shipped image
	// (mapping pages, COW-arming the table) before the first fork.
	Attach time.Duration
}

// HandoffActivation prices activation by snapshot-image handoff off a
// captured boot template — its size, mint time, platform and NIC count,
// measured rather than assumed. The receiving host already holds the
// kernel image (the registry distributes those); the handoff ships only
// the template's post-boot delta: the privatized page-table pages, the
// heap allocator's write-set, and a descriptor per COW-marked page so
// the receiver can rebuild the share map — a diff snapshot, not a
// memory dump.
func HandoffActivation(snap *ukboot.Snapshot) Activation {
	const pageDescBytes = 16
	tmpl := snap.Template()
	return Activation{
		Handoff: true,
		ImageBytes: snap.PrivateOverheadBytes() + snap.HeapMetaBytes() +
			snap.MarkedPages()*pageDescBytes,
		ColdBoot: tmpl.Report.Total(),
		Attach:   tmpl.Platform.ForkSetup + time.Duration(tmpl.Config.NICs)*tmpl.Platform.ForkNICSetup,
	}
}

// Config parameterizes a Cluster. The zero value is not useful; New
// fills every unset field with the defaults documented per field.
type Config struct {
	// Hosts is the total host count, standby included (default 1).
	Hosts int
	// Cores is the per-host serving parallelism: each host serves its
	// sub-trace over this many deterministic event-loop shards
	// (Pool.ServeParallel; default 1).
	Cores int
	// InitialActive is how many hosts (ids 0..n-1) serve from the
	// start; the remainder are standby, activated by spill (default
	// Hosts: a static fleet).
	InitialActive int
	// MinActive is the scale-down floor: drains never shrink the
	// serving set below it, and host 0 — the template holder — is
	// never drained at all (default 1).
	MinActive int
	// Policy is the balancing policy (default LeastLoaded).
	Policy Policy
	// NewPool builds host id's warm pool on first use. Required.
	// Called sequentially (from New for initial hosts, from the
	// front door on activation, while other hosts serve), so calls
	// never overlap each other; each host's pool must boot instances
	// on its own machines with host-distinct deterministic seeds.
	NewPool func(host int) (*ukpool.Pool, error)
	// EstService is the router's estimate of per-request work, feeding
	// its fluid outstanding-work model (default 20µs). The router is a
	// front door, not an oracle: it sees its own forwarding decisions,
	// never guest-internal state.
	EstService time.Duration
	// Router prices the front door's per-request work.
	Router netstack.RouterModel
	// Link prices request forwarding and image handoff.
	Link Link
	// Activation prices standby-host bring-up.
	Activation Activation
	// EvalEvery is the cluster autoscaler's evaluation period (default
	// 10ms of virtual time).
	EvalEvery time.Duration
	// HighWater and LowWater are the spill/drain thresholds, in units
	// of EstService of backlog per core (defaults 8 and 1): spill when
	// the serving hosts hold more than HighWater requests' worth of
	// work per core, drain when below LowWater.
	HighWater, LowWater float64
	// SpillAfter and DrainAfter are the hysteresis: how many
	// consecutive evaluation windows the condition must hold before
	// acting (defaults 2 and 8 — the cluster grows eagerly and shrinks
	// reluctantly).
	SpillAfter, DrainAfter int
	// VirtualNodes is the consistent-hash ring density per host
	// (default 64).
	VirtualNodes int
	// NewMachine builds the front door's own machine (default
	// sim.NewMachine).
	NewMachine func() *sim.Machine

	// Faults, when it carries cluster-level faults (host crashes, link
	// faults or slow hosts), arms the probe rounds and the static shed
	// below. A nil plan is the empty plan: the same routing pass runs,
	// with nothing for it to act on.
	Faults *ukfault.Plan
	// ProbeEvery is the health-probe round period (default 5ms);
	// ProbeMisses how many unanswered rounds declare a host dead
	// (default 2); ProbeTimeout the per-probe reply deadline (default
	// 4x Link.RTT). Together they set the failure-detection latency:
	// a crash at T is detected at the ProbeMisses-th missed round's
	// timeout — see detectTime.
	ProbeEvery   time.Duration
	ProbeMisses  int
	ProbeTimeout time.Duration
	// ReplyTimeout is how long the router waits for a forwarded
	// request's reply before declaring the forward lost (default 1ms).
	// Crash detection can beat it: whichever signal lands first
	// triggers the retry.
	ReplyTimeout time.Duration
	// RetryLimit bounds per-request retries of lost forwards (default
	// 3); RetryBackoff is the base of the exponential backoff between
	// attempts (default 250µs); RetryBudget caps retries per trace
	// (default 0: unbounded) so a partition cannot turn the front door
	// into a retry storm.
	RetryLimit   int
	RetryBackoff time.Duration
	RetryBudget  int
	// ShedWater is the admission-control threshold, in units of
	// EstService of backlog per core (default 4x HighWater, evaluated
	// only when a fault plan is armed). Shedding is a last resort:
	// it triggers only when no activatable standby remains — the
	// fleet maxed out or the spares crashed — and the surviving
	// hosts' backlog still exceeds the threshold; arrivals then get a
	// cheap reject instead of queueing without bound.
	ShedWater float64

	// Overload control (all off by default; a config that leaves every
	// field below at its zero value serves byte-identically to one that
	// predates them).

	// AdmitTarget, when > 0, arms the adaptive admission controller:
	// every autoscaler evaluation window the router compares its
	// estimated queue delay (fluid backlog per core) against this
	// target and sheds a proportional fraction of new arrivals when the
	// delay exceeds it — CoDel's insight (control on queueing *delay*,
	// not queue length) applied at the front door, replacing the static
	// ShedWater cliff with a controller that stabilizes the backlog
	// near the target at any overload ratio. Shedding is staged by
	// priority class: batch traffic sheds as soon as the delay crosses
	// AdmitTarget, interactive traffic only past AdmitInteractiveMult
	// times the target. Drop decisions are identity-keyed deterministic
	// draws (AdmitSeed), never rate counters, so they are invariant
	// across shard counts and byte-identical across runs.
	AdmitTarget time.Duration
	// AdmitInteractiveMult is the interactive shed threshold as a
	// multiple of AdmitTarget (default 3).
	AdmitInteractiveMult float64
	// AdmitSeed domain-separates the admission drop draws.
	AdmitSeed uint64
	// DefaultDeadline, when > 0, stamps arrival + DefaultDeadline on
	// every request that reaches the front door without a deadline of
	// its own. The router drops a request whose deadline has passed by
	// the time it dispatches it (a cheap priced expiry instead of a
	// forward), and the deadline rides to the host pool, which drops
	// it from its queue the same way — no service time is ever charged
	// for an answer nobody is waiting for.
	DefaultDeadline time.Duration
	// RetryThrottleRatio, when > 0, arms the retry token bucket: every
	// successful forward earns the bucket RetryThrottleRatio tokens
	// (capped at RetryThrottleBurst) and every retry of a lost forward
	// spends one. When losses outpace successes the bucket empties and
	// further retries are cut (counted Throttled, the request Failed) —
	// retries can never exceed ~RetryThrottleRatio of successful
	// traffic, which bounds the retry-storm positive feedback that
	// RetryLimit and RetryBackoff alone cannot (they bound each
	// request, not the aggregate).
	RetryThrottleRatio float64
	// RetryThrottleBurst is the bucket capacity and initial fill
	// (default 50 when the throttle is armed).
	RetryThrottleBurst float64
}

// overloadControl reports whether any overload-control feature needs
// the front door (admission, default deadlines, retry throttling) —
// the single-host router bypass must not take those away.
func (c *Config) overloadControl() bool {
	return c.AdmitTarget > 0 || c.DefaultDeadline > 0 || c.RetryThrottleRatio > 0
}

// host is one simulated box in the fleet.
type host struct {
	id   int
	pool *ukpool.Pool

	active      bool
	readyAt     time.Duration // activation completes (template present)
	activatedAt time.Duration // -1: initially active

	// Router-side fluid load model: outstanding forwarded work,
	// decaying at Cores' worth of service per unit time.
	backlog time.Duration
	lastUpd time.Duration

	drained bool

	// cur is the pool incarnation taking this host's forwards in the
	// serve in progress (nil until it takes one); wreck is the one a
	// crash detection retired this serve. pending holds forwards to cur
	// the front door's clock has not passed yet, from pending[head] on,
	// sorted by host arrival with ties in forward order. wrecked says
	// the plan's crash of this host was detected this serve.
	cur, wreck *incarnation
	pending    []forward
	head       int
	wrecked    bool

	// crashed marks a host between crash detection and rejoin: out of
	// the serving set and not activatable.
	crashed bool
}

// Cluster is a fleet of hosts behind one front door. All methods are
// safe for concurrent use; concurrent Serve calls serialize.
type Cluster struct {
	cfg Config

	mu     sync.Mutex
	hosts  []*host
	closed bool

	// chunks is the free list every host feed draws from.
	chunks *ukpool.Chunks
}

// chunksPerHost sizes the chunk free list at chunksPerHost*Hosts+1:
// per host, one chunk the front door fills while its pool reads
// another. It must outnumber the feeds open at once — one per host —
// or every chunk could sit half-filled with no reader to free one.
const chunksPerHost = 2

// New builds a cluster over cfg, constructing the pools of the
// initially active hosts. Standby hosts stay unbuilt until a spill
// activates them.
func New(cfg Config) (*Cluster, error) {
	if cfg.NewPool == nil {
		return nil, fmt.Errorf("ukcluster: Config.NewPool is required")
	}
	if cfg.Hosts < 1 {
		cfg.Hosts = 1
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.InitialActive < 1 || cfg.InitialActive > cfg.Hosts {
		cfg.InitialActive = cfg.Hosts
	}
	if cfg.MinActive < 1 {
		cfg.MinActive = 1
	}
	if cfg.MinActive > cfg.InitialActive {
		cfg.MinActive = cfg.InitialActive
	}
	if cfg.EstService <= 0 {
		cfg.EstService = 20 * time.Microsecond
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 10 * time.Millisecond
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 8
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 1
	}
	if cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater / 8
	}
	if cfg.SpillAfter < 1 {
		cfg.SpillAfter = 2
	}
	if cfg.DrainAfter < 1 {
		cfg.DrainAfter = 8
	}
	if cfg.VirtualNodes < 1 {
		cfg.VirtualNodes = 64
	}
	if cfg.Link.BytesPerSec == 0 {
		cfg.Link.BytesPerSec = 1_250_000_000 // 10 GbE
	}
	if cfg.Link.RTT == 0 {
		cfg.Link.RTT = 40 * time.Microsecond
	}
	if cfg.NewMachine == nil {
		cfg.NewMachine = sim.NewMachine
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 5 * time.Millisecond
	}
	if cfg.ProbeMisses < 1 {
		cfg.ProbeMisses = 2
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 4 * cfg.Link.RTT
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = time.Millisecond
	}
	if cfg.RetryLimit < 1 {
		cfg.RetryLimit = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Microsecond
	}
	if cfg.ShedWater <= 0 {
		cfg.ShedWater = 4 * cfg.HighWater
	}
	if cfg.AdmitTarget > 0 && cfg.AdmitInteractiveMult <= 0 {
		cfg.AdmitInteractiveMult = 3
	}
	if cfg.RetryThrottleRatio > 0 && cfg.RetryThrottleBurst <= 0 {
		cfg.RetryThrottleBurst = 50
	}
	if err := cfg.Faults.Validate(cfg.Hosts); err != nil {
		return nil, err
	}
	if cfg.Faults == nil {
		cfg.Faults = &ukfault.Plan{} // no plan is the empty plan
	}

	c := &Cluster{cfg: cfg, hosts: make([]*host, cfg.Hosts),
		chunks: ukpool.NewChunks(chunksPerHost*cfg.Hosts + 1)}
	for i := range c.hosts {
		c.hosts[i] = &host{id: i, activatedAt: -1}
	}
	for i := 0; i < cfg.InitialActive; i++ {
		pool, err := cfg.NewPool(i)
		if err != nil {
			return nil, fmt.Errorf("ukcluster: host %d pool: %w", i, err)
		}
		c.hosts[i].pool = pool
		c.hosts[i].active = true
	}
	return c, nil
}

// Hosts reports the total host count.
func (c *Cluster) Hosts() int { return c.cfg.Hosts }

// Active reports how many hosts are currently in the serving set.
func (c *Cluster) Active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serving()
}

// Close retires every host's pool. The cluster must not be serving.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, h := range c.hosts {
		if h.pool != nil {
			h.pool.Close()
		}
	}
}

// Serve routes every request of w through the fleet and reports what
// happened. With one host the front door is bypassed entirely — the
// report's Pool section is then byte-identical to what that host's
// Pool.Serve (or ServeParallel for Cores > 1) returns. With more, the
// front door routes sequentially while every host serves what it has
// been released on a goroutine of its own, and the reports merge in
// host order.
func (c *Cluster) Serve(w ukpool.Workload) (*Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("ukcluster: serve on closed cluster")
	}

	// Not redundant with the general path: route() charges ChargeRoute
	// and Link.ForwardDelay per request, so it cannot reproduce these
	// bytes.
	if c.cfg.Hosts == 1 && !c.cfg.Faults.ClusterFaults() && !c.cfg.overloadControl() {
		rep, err := c.hosts[0].pool.ServeWith(w, ukpool.ServeOpts{Shards: c.cfg.Cores})
		if err != nil {
			return nil, err
		}
		out := &Report{Hosts: 1, Cores: c.cfg.Cores, Policy: c.cfg.Policy,
			Offered: rep.Requests, ActiveStart: 1, ActivePeak: 1, ActiveEnd: 1, Pool: *rep}
		out.fillPerHost([]*ukpool.Report{rep}, []hostMeta{{id: 0, activatedAt: -1}})
		return out, nil
	}

	st := c.route(w)
	st.serving.Wait()
	return st.rep, c.merge(st)
}

// incarnation is one pool life of a host within a serve: the pool the
// front door found or built for it, the feed its forwards are released
// into, and what its serve reported. A host has at most two per serve —
// the one a crash detection turns into a wreck, then a fresh pool after
// rejoin — and a wreck is served with a fail-stop cutoff at the crash.
type incarnation struct {
	pool    *ukpool.Pool
	feed    *ukpool.Feed  // nil: a wreck that never took a forward
	crashAt time.Duration // the plan's crash instant when this life ends in one

	// Set by the front door before the feed closes.
	meta hostMeta // meta.crashed marks the wreck
	idle bool     // serve even with nothing released: the host ended the serve active

	rep *ukpool.Report
	err error
}

// incarnate starts h's next pool life on h's current pool: a feed, and
// the goroutine that serves it.
func (c *Cluster) incarnate(st *routeState, h *host) *incarnation {
	inc := &incarnation{pool: h.pool, feed: ukpool.NewFeed(c.chunks)}
	if cr, ok := c.cfg.Faults.CrashOf(h.id); ok && !h.wrecked {
		inc.crashAt = cr.At
	}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// Nothing is served before the first request is released: a host
		// whose every forward bounced back, or that crashed before one
		// reached it, must not boot a warm floor the report never sees.
		if inc.feed.Empty() && !inc.idle {
			if inc.meta.crashed {
				inc.rep = &ukpool.Report{}
			}
			return
		}
		inc.rep, inc.err = inc.pool.ServeWith(inc.feed,
			ukpool.ServeOpts{Shards: c.cfg.Cores, CrashAt: inc.crashAt})
	}()
	return inc
}

// forward is one request waiting in a host's pending buffer, with its
// forward ordinal: a drain bounces what it finds there in forward
// order.
type forward struct {
	req ukpool.Request
	seq uint64
}

// queue adds a forward to h's pending buffer, keeping it sorted by
// host arrival (a later forward of equal arrival goes behind), then
// releases what arrives by the front door's clock.
func (c *Cluster) queue(st *routeState, h *host, req ukpool.Request) {
	if h.cur == nil {
		h.cur = c.incarnate(st, h)
	}
	st.seq++
	h.pending = append(h.pending, forward{req, st.seq})
	for i := len(h.pending) - 1; i > h.head && h.pending[i-1].req.Arrival > req.Arrival; i-- {
		h.pending[i-1], h.pending[i] = h.pending[i], h.pending[i-1]
	}
	h.release(st.now)
}

// release pushes h's pending forwards that arrive by t into its feed.
// The caller vouches that nothing forwarded to h from now on arrives
// before t, so a later forward lands behind these and released order
// is the order h sees its requests in.
func (h *host) release(t time.Duration) {
	i := h.head
	for ; i < len(h.pending) && h.pending[i].req.Arrival <= t; i++ {
		h.cur.feed.Push(h.pending[i].req)
	}
	switch {
	case i == len(h.pending):
		h.pending, h.head = h.pending[:0], 0
	case i > len(h.pending)/2:
		h.pending, h.head = h.pending[:copy(h.pending, h.pending[i:])], 0
	default:
		h.head = i
	}
}

// retire releases all of h's pending forwards and closes its feed:
// the incarnation takes nothing more, renders as meta, and is served
// even with nothing released when idle is set.
func (h *host) retire(meta hostMeta, idle bool) {
	h.release(math.MaxInt64)
	h.cur.meta, h.cur.idle = meta, idle
	h.cur.feed.Close()
}

// merge runs once every host loop has finished: it folds the
// incarnation reports into the cluster report in host order — a host's
// wreck before its post-rejoin life — and closes the wrecks' pools.
func (c *Cluster) merge(st *routeState) error {
	rep := st.rep
	var reps []*ukpool.Report
	var metas []hostMeta
	var firstErr error
	for _, h := range c.hosts {
		for _, inc := range [2]*incarnation{h.wreck, h.cur} {
			if inc == nil {
				continue
			}
			if inc.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ukcluster: host %d: %w", h.id, inc.err)
			}
			if inc.rep != nil {
				rep.Pool.Merge(inc.rep)
				reps = append(reps, inc.rep)
				metas = append(metas, inc.meta)
			}
			if inc.meta.crashed && inc.pool != nil {
				inc.pool.Close() // the dead fleet; nothing else owns it now
			}
		}
		h.wreck, h.cur = nil, nil
	}
	rep.ActiveEnd = c.serving()
	rep.fillPerHost(reps, metas)
	return firstErr
}
